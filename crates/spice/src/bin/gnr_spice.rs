//! `gnr-spice` — run SPICE decks end-to-end without writing Rust.
//!
//! ```text
//! gnr-spice parse <deck.sp>            summarize a deck (or report errors)
//! gnr-spice dc    <deck.sp> [--out f]  .dc sweep if present, else .op
//! gnr-spice tran  <deck.sp> [--out f]  first .tran card
//! gnr-spice ac    <deck.sp> [--out f]  first .ac card
//! ```
//!
//! Results are `gnr-rawfile/v1` JSON on stdout (or `--out <file>`).
//! `.model … surrogate` cards resolve automatically; `.model … gnrfet`
//! cards build real ballistic tables through `gnr-device` (parameters:
//! `n` GNR index (an integer in [3, 30]), `ribbons` (an integer >= 1),
//! `config=small|paper`, `vdd`, grid bounds `vgs0 vgs1 vds0 vds1`,
//! `points` (an integer in [3, 201]), `polarity`, `vgshift=auto|<v>`,
//! `rs`/`rd`). A `.dc` or `.ac` sweep may hold at most 100 000 points.
//! Exit codes: 0 ok, 1 usage/IO, 2 parse error, 3 analysis failure.

use gnr_device::table::TableGrid;
use gnr_device::{DeviceConfig, DeviceTable, Polarity, SbfetModel};
use gnr_num::budget::ExecLimits;
use gnr_num::json::Json;
use gnr_num::par::ExecCtx;
use gnr_spice::dc::{dc_operating_point, set_source_value, DcOptions};
use gnr_spice::netlist::{
    parse_deck, AnalysisCard, Deck, ElaboratedDeck, ModelBindings, MAX_TABLE_POINTS,
};
use gnr_spice::rawfile;
use gnr_spice::transient::{transient, TransientOptions};
use gnr_spice::{ac::ac_analysis, SpiceError};
use std::sync::Arc;

/// Most operating points a `.dc` sweep and most frequencies an `.ac`
/// sweep may ask for: a deck's step size must not make the CLI allocate
/// or solve without bound.
const MAX_SWEEP_POINTS: usize = 100_000;

/// Widest armchair GNR index a `gnrfet` card may ask for. The paper
/// studies N = 9…18; 30 leaves headroom while keeping the dense 2N×2N
/// unit-cell Hamiltonian and the device grid small. `AGnr` needs N >= 3.
const MAX_GNR_INDEX: usize = 30;

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn usage() -> i32 {
    eprintln!("usage: gnr-spice <parse|dc|tran|ac> <deck.sp> [--out <file>]");
    1
}

fn run(args: Vec<String>) -> i32 {
    let mut cmd = None;
    let mut deck_path = None;
    let mut out_path = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(p),
                None => return usage(),
            },
            "-h" | "--help" => return usage(),
            _ if cmd.is_none() => cmd = Some(a),
            _ if deck_path.is_none() => deck_path = Some(a),
            _ => return usage(),
        }
    }
    let (Some(cmd), Some(deck_path)) = (cmd, deck_path) else {
        return usage();
    };
    let text = match std::fs::read_to_string(&deck_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{deck_path}: {e}");
            return 1;
        }
    };
    let deck = match parse_deck(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{deck_path}:{}:{}: {e}", e.line, e.col);
            return 2;
        }
    };
    if cmd == "parse" {
        println!(
            "{}: '{}' — {} elements (flattened), {} models, {} analyses",
            deck_path,
            deck.title,
            deck.element_count(),
            deck.models().len(),
            deck.analyses.len()
        );
        for a in &deck.analyses {
            println!("  analysis: {a:?}");
        }
        return 0;
    }
    let bindings = match gnrfet_bindings(&deck) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{deck_path}: model resolution failed: {e}");
            return 3;
        }
    };
    let elab = match deck.elaborate(&bindings) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{deck_path}:{}:{}: {e}", e.line, e.col);
            return 2;
        }
    };
    if let Err(e) = elab.circuit.validate() {
        eprintln!("{deck_path}: {e}");
        return 2;
    }
    let result = match cmd.as_str() {
        "dc" => run_dc(&elab),
        "tran" => run_tran(&elab),
        "ac" => run_ac(&elab),
        _ => return usage(),
    };
    let json = match result {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{deck_path}: {e}");
            return 3;
        }
    };
    let dumped = json.dump();
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, dumped) {
                eprintln!("{p}: {e}");
                return 1;
            }
        }
        None => {
            // Tolerate a closed pipe (e.g. `gnr-spice dc deck.sp | head`).
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{dumped}");
        }
    }
    0
}

fn run_dc(elab: &ElaboratedDeck) -> Result<Json, SpiceError> {
    let sweep = elab.analyses.iter().find_map(|a| match a {
        AnalysisCard::Dc {
            source,
            start,
            stop,
            step,
        } => Some((source.clone(), *start, *stop, *step)),
        _ => None,
    });
    match sweep {
        None => {
            let x = dc_operating_point(
                &elab.circuit,
                None,
                DcOptions::default(),
                &ExecLimits::none(),
            )?;
            Ok(rawfile::dc_rawfile(elab, &x))
        }
        Some((source, start, stop, step)) => {
            if step <= 0.0 || stop < start {
                return Err(SpiceError::config(".dc needs stop >= start and step > 0"));
            }
            let k = elab.source_index(&source).ok_or_else(|| {
                SpiceError::config(format!(".dc sweeps unknown source '{source}'"))
            })?;
            let n_steps = ((stop - start) / step).round();
            // NaN: an infinite start and stop.
            if n_steps.is_nan() || n_steps >= MAX_SWEEP_POINTS as f64 {
                return Err(SpiceError::config(format!(
                    ".dc sweep {start}..{stop} by {step} exceeds {MAX_SWEEP_POINTS} points"
                )));
            }
            let values: Vec<f64> = (0..=n_steps as usize)
                .map(|i| start + i as f64 * step)
                .collect();
            let mut circuit = elab.circuit.clone();
            let mut solutions = Vec::with_capacity(values.len());
            let mut x_prev: Option<Vec<f64>> = None;
            for &v in &values {
                set_source_value(&mut circuit, k, v)?;
                let x = dc_operating_point(
                    &circuit,
                    x_prev.as_deref(),
                    DcOptions::default(),
                    &ExecLimits::none(),
                )?;
                x_prev = Some(x.clone());
                solutions.push(x);
            }
            Ok(rawfile::sweep_rawfile(elab, &source, &values, &solutions))
        }
    }
}

fn run_tran(elab: &ElaboratedDeck) -> Result<Json, SpiceError> {
    let card = elab
        .analyses
        .iter()
        .find_map(|a| match a {
            AnalysisCard::Tran { dt, t_stop } => Some((*dt, *t_stop)),
            _ => None,
        })
        .ok_or_else(|| SpiceError::config("deck has no .tran card"))?;
    let ctx = ExecCtx::from_env();
    let (result, _report) = transient(&ctx, &elab.circuit, &TransientOptions::new(card.1, card.0))?;
    Ok(rawfile::tran_rawfile(elab, &result))
}

fn run_ac(elab: &ElaboratedDeck) -> Result<Json, SpiceError> {
    let card = elab
        .analyses
        .iter()
        .find_map(|a| match a {
            AnalysisCard::Ac {
                points_per_decade,
                f_start,
                f_stop,
            } => Some((*points_per_decade, *f_start, *f_stop)),
            _ => None,
        })
        .ok_or_else(|| SpiceError::config("deck has no .ac card"))?;
    let (ppd, f_start, f_stop) = card;
    if ppd == 0 || f_start <= 0.0 || f_stop < f_start {
        return Err(SpiceError::config(
            ".ac needs points/decade > 0 and 0 < fstart <= fstop",
        ));
    }
    let mut freqs = Vec::new();
    let mut i = 0usize;
    loop {
        let f = f_start * 10f64.powf(i as f64 / ppd as f64);
        if f > f_stop * (1.0 + 1e-12) {
            break;
        }
        if freqs.len() == MAX_SWEEP_POINTS {
            return Err(SpiceError::config(format!(
                ".ac sweep exceeds {MAX_SWEEP_POINTS} frequencies"
            )));
        }
        freqs.push(f);
        i += 1;
    }
    // The source tagged `ac` in the deck, else the first source.
    let src = elab.ac_source.unwrap_or(0);
    let sweep = ac_analysis(&elab.circuit, src, &freqs, DcOptions::default())?;
    Ok(rawfile::ac_rawfile(elab, &sweep))
}

/// Builds tables for every `.model … gnrfet` card via `gnr-device` and
/// binds them by name. Surrogate cards are left to the elaborator.
fn gnrfet_bindings(deck: &Deck) -> Result<ModelBindings, String> {
    let mut bindings = ModelBindings::new();
    let ctx = ExecCtx::from_env();
    for card in deck.models() {
        if card.kind != "gnrfet" {
            continue;
        }
        let bad = |e: &dyn std::fmt::Display| format!("model '{}': {e}", card.name);
        let p = |key: &str, dflt: f64| card.param_f64(key, dflt).map_err(|e| bad(&e));
        let int = |key: &str, dflt: usize, range| card.param_usize(key, dflt, range);
        let n = int("n", 12, 3..=MAX_GNR_INDEX).map_err(|e| bad(&e))?;
        let ribbons = int("ribbons", 4, 1..=usize::MAX).map_err(|e| bad(&e))?;
        let vdd = p("vdd", 0.4)?;
        let cfg = match card.param("config").unwrap_or("small") {
            "small" => DeviceConfig::test_small(n).map_err(|e| bad(&e))?,
            "paper" => DeviceConfig::paper_nominal(n).map_err(|e| bad(&e))?,
            other => return Err(bad(&format!("unknown config '{other}'"))),
        };
        let model = SbfetModel::new(&cfg).map_err(|e| bad(&e))?;
        let grid = TableGrid {
            vgs: (p("vgs0", -0.35)?, p("vgs1", 1.0)?),
            vds: (p("vds0", 0.0)?, p("vds1", 0.85)?),
            points: int("points", 21, 3..=MAX_TABLE_POINTS).map_err(|e| bad(&e))?,
        };
        let mut table = DeviceTable::from_model(&ctx, &model, Polarity::NType, grid, ribbons)
            .map_err(|e| bad(&e))?;
        match card.param("vgshift") {
            None => {}
            Some("auto") => {
                let vmin = model.minimum_leakage_vg(vdd).map_err(|e| bad(&e))?;
                table = table.with_vg_shift(-vmin);
            }
            Some(raw) => {
                let shift = gnr_num::json::Json::parse(raw)
                    .ok()
                    .and_then(|j| j.as_f64())
                    .ok_or_else(|| bad(&format!("bad vgshift '{raw}'")))?;
                table = table.with_vg_shift(shift);
            }
        }
        let rs = p("rs", 0.0)?;
        let rd = p("rd", 0.0)?;
        if rs != 0.0 || rd != 0.0 {
            table = table.fold_series_resistance(rs, rd).map_err(|e| bad(&e))?;
        }
        if card.param("polarity") == Some("p") {
            table = table.mirrored();
        }
        bindings = bindings.bind(&card.name, Arc::new(table));
    }
    Ok(bindings)
}
