//! SPICE-deck front end: parse, flatten, and elaborate to [`Circuit`].
//!
//! The grammar is the practical core of SPICE: element cards (`r`, `c`,
//! `v`, `i`, `m`, `x`), `.model` cards, `.subckt`/`.ends` definitions with
//! full flattening, `+` line continuations, `*` comment lines and `;`/`$`
//! inline comments, scale suffixes (`f p n u m k meg g t`), and the
//! `.op`/`.dc`/`.tran`/`.ac` analysis cards. Two house extensions keep
//! parsed circuits bit-identical to hand-built ones:
//!
//! * `.nodes a b c …` pre-interns nodes in the listed order, pinning the
//!   MNA row order (and therefore the exact floating-point solve) to the
//!   builder's interning order;
//! * `.model <name> extern` declares a model resolved purely through
//!   [`ModelBindings`] — the deck names the device, Rust supplies the
//!   [`DeviceTable`] handle (e.g. from the content-addressed store).
//!
//! [`emit_deck`] is the inverse: it serialises any [`Circuit`] to deck
//! text using shortest-round-trip float formatting, so
//! `parse(emit(c))` elaborates to a circuit whose solve is bit-identical
//! to `c`'s. The conformance suite pins every builder circuit this way.
//!
//! Parsing never panics on malformed input: every failure is a typed
//! [`ParseError`] carrying the 1-based line and column of the offending
//! token.

use crate::circuit::{Circuit, Element, NodeId, Waveform};
use crate::error::SpiceError;
use gnr_device::table::TableGrid;
use gnr_device::{DeviceTable, Polarity};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Maximum `.subckt` expansion depth before the parser declares a cycle.
const MAX_SUBCKT_DEPTH: usize = 32;

/// What went wrong while parsing or elaborating a deck.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum ParseErrorKind {
    /// Malformed card syntax (wrong arity, missing token, stray token).
    Syntax,
    /// A numeric field failed to parse (bad digits or unknown suffix).
    BadNumber,
    /// First token of a card does not start a known element or directive.
    UnknownElement,
    /// A `.`-directive the parser does not understand.
    UnknownDirective,
    /// `.subckt` without a matching `.ends` before end of deck.
    UnclosedSubckt,
    /// `x` instance referencing an undefined subcircuit.
    UnknownSubckt,
    /// Two `.subckt` definitions with the same name.
    DuplicateSubckt,
    /// Subcircuit expansion exceeded the nesting limit (a cycle).
    RecursiveSubckt,
    /// `.alias` redefining a name that is already aliased.
    DuplicateAlias,
    /// FET instance referencing a model with no card and no binding.
    UnknownModel,
    /// Two `.model` cards with the same name.
    DuplicateModel,
    /// A `.model` card whose parameters cannot build a table.
    BadModel,
}

/// Typed deck parse/elaboration failure with source position.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// 1-based line in the deck text.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Failure category (stable for tests; see [`ParseErrorKind`]).
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, col {}: {} ({:?})",
            self.line, self.col, self.detail, self.kind
        )
    }
}

impl Error for ParseError {}

/// One lexed token with its source position.
#[derive(Clone, Debug)]
struct Tok {
    text: String,
    line: usize,
    col: usize,
}

impl Tok {
    fn err(&self, kind: ParseErrorKind, detail: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            kind,
            detail: detail.into(),
        }
    }
}

/// A parsed element after subcircuit flattening; nodes are still names.
#[derive(Clone, Debug)]
struct ElemStmt {
    name: String,
    kind: ElemKind,
    line: usize,
    col: usize,
}

#[derive(Clone, Debug)]
enum ElemKind {
    Resistor {
        a: String,
        b: String,
        ohms: f64,
    },
    Capacitor {
        a: String,
        b: String,
        farads: f64,
    },
    VSource {
        p: String,
        n: String,
        wave: Waveform,
        ac_mag: Option<f64>,
    },
    ISource {
        p: String,
        n: String,
        wave: Waveform,
    },
    Fet {
        d: String,
        g: String,
        s: String,
        model: String,
    },
}

/// An unexpanded `x` instance.
#[derive(Clone, Debug)]
struct Inst {
    name: String,
    nodes: Vec<String>,
    subckt: String,
    line: usize,
    col: usize,
}

#[derive(Clone, Debug)]
enum BodyItem {
    Elem(ElemStmt),
    Inst(Inst),
}

#[derive(Clone, Debug)]
struct Subckt {
    ports: Vec<String>,
    body: Vec<BodyItem>,
}

/// A `.model` card. Parameters are kept as raw strings; numeric access
/// goes through [`ModelCard::param_f64`] so suffix errors carry the card's
/// position.
#[derive(Clone, Debug)]
pub struct ModelCard {
    /// Model name (lower-cased).
    pub name: String,
    /// Model kind: `surrogate`, `gnrfet`, or `extern`.
    pub kind: String,
    /// Raw `key=value` parameters in card order.
    pub params: Vec<(String, String)>,
    /// 1-based line of the card.
    pub line: usize,
}

impl ModelCard {
    /// Raw string value of a parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Numeric parameter with SPICE suffixes, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseErrorKind::BadNumber`] at the card's line when the
    /// value does not parse.
    pub fn param_f64(&self, key: &str, default: f64) -> Result<f64, ParseError> {
        match self.param(key) {
            None => Ok(default),
            Some(raw) => parse_spice_number(raw).map_err(|detail| ParseError {
                line: self.line,
                col: 1,
                kind: ParseErrorKind::BadNumber,
                detail: format!("model '{}' param '{key}': {detail}", self.name),
            }),
        }
    }

    /// Integer parameter in `range`, or `default` when absent. A count
    /// written as `3.9`, `-4` or `1e30` is rejected, never truncated.
    ///
    /// # Errors
    ///
    /// [`ParseErrorKind::BadNumber`] when the value does not parse,
    /// [`ParseErrorKind::BadModel`] when it is not an integer in `range`;
    /// both at the card's line.
    pub fn param_usize(
        &self,
        key: &str,
        default: usize,
        range: RangeInclusive<usize>,
    ) -> Result<usize, ParseError> {
        match self.param(key) {
            None => Ok(default),
            Some(_) => integer_in(self.param_f64(key, 0.0)?, range).map_err(|detail| ParseError {
                line: self.line,
                col: 1,
                kind: ParseErrorKind::BadModel,
                detail: format!("model '{}' param '{key}': {detail}", self.name),
            }),
        }
    }
}

/// `value` as an integer in `range`: deck cards write counts as SPICE
/// numbers, and an `as usize` cast would silently truncate a fraction,
/// clamp a negative to 0 and accept an unbounded count.
fn integer_in(value: f64, range: RangeInclusive<usize>) -> Result<usize, String> {
    let (lo, hi) = (*range.start(), *range.end());
    if value.fract() == 0.0 && value >= lo as f64 && value <= hi as f64 {
        return Ok(value as usize);
    }
    Err(if hi == usize::MAX {
        format!("must be an integer >= {lo}, got {value}")
    } else {
        format!("must be an integer in [{lo}, {hi}], got {value}")
    })
}

/// A parsed analysis card.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalysisCard {
    /// `.op` — DC operating point only.
    Op,
    /// `.dc <vsource> <start> <stop> <step>` — DC transfer sweep.
    Dc {
        /// Name of the swept voltage source.
        source: String,
        /// Sweep start \[V\].
        start: f64,
        /// Sweep stop \[V\].
        stop: f64,
        /// Sweep increment \[V\] (must be > 0).
        step: f64,
    },
    /// `.tran <dt> <tstop>` — transient analysis.
    Tran {
        /// Time step \[s\].
        dt: f64,
        /// Stop time \[s\].
        t_stop: f64,
    },
    /// `.ac dec <points/decade> <fstart> <fstop>` — small-signal sweep.
    Ac {
        /// Frequency points per decade.
        points_per_decade: usize,
        /// Start frequency \[Hz\].
        f_start: f64,
        /// Stop frequency \[Hz\].
        f_stop: f64,
    },
}

/// A fully parsed (and flattened) deck, ready to elaborate.
#[derive(Clone, Debug)]
pub struct Deck {
    /// Title line (first line of the deck, verbatim).
    pub title: String,
    /// Analysis cards in deck order.
    pub analyses: Vec<AnalysisCard>,
    elements: Vec<ElemStmt>,
    models: Vec<ModelCard>,
    node_order: Vec<String>,
    aliases: HashMap<String, String>,
}

impl Deck {
    /// All `.model` cards in deck order.
    pub fn models(&self) -> &[ModelCard] {
        &self.models
    }

    /// Looks up a `.model` card by (lower-cased) name.
    pub fn model(&self, name: &str) -> Option<&ModelCard> {
        self.models.iter().find(|m| m.name == name)
    }

    /// Number of flattened element cards.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Resolves a node name through the alias map.
    fn resolve_alias<'a>(&'a self, name: &'a str) -> &'a str {
        let mut cur = name;
        for _ in 0..MAX_SUBCKT_DEPTH {
            match self.aliases.get(cur) {
                Some(next) => cur = next,
                None => return cur,
            }
        }
        cur
    }

    /// Elaborates the deck into a [`Circuit`].
    ///
    /// Model resolution order for each FET instance: an explicit entry in
    /// `bindings`, else an auto-built table from a `surrogate` model card,
    /// else [`ParseErrorKind::UnknownModel`]. Tables built from the same
    /// card are shared (one `Arc` per model name).
    ///
    /// # Errors
    ///
    /// Returns a positioned [`ParseError`] for unknown models or
    /// un-buildable model cards.
    pub fn elaborate(&self, bindings: &ModelBindings) -> Result<ElaboratedDeck, ParseError> {
        let mut circuit = Circuit::new();
        for name in &self.node_order {
            circuit.node(self.resolve_alias(name));
        }
        let mut tables: HashMap<String, Arc<DeviceTable>> = HashMap::new();
        let mut sources = Vec::new();
        let mut ac_source = None;
        for e in &self.elements {
            match &e.kind {
                ElemKind::Resistor { a, b, ohms } => {
                    let a = circuit.node(self.resolve_alias(a));
                    let b = circuit.node(self.resolve_alias(b));
                    circuit.add(Element::Resistor { a, b, ohms: *ohms });
                }
                ElemKind::Capacitor { a, b, farads } => {
                    let a = circuit.node(self.resolve_alias(a));
                    let b = circuit.node(self.resolve_alias(b));
                    circuit.add(Element::Capacitor {
                        a,
                        b,
                        farads: *farads,
                    });
                }
                ElemKind::VSource { p, n, wave, ac_mag } => {
                    let p = circuit.node(self.resolve_alias(p));
                    let n = circuit.node(self.resolve_alias(n));
                    if ac_mag.is_some() && ac_source.is_none() {
                        ac_source = Some(sources.len());
                    }
                    sources.push(e.name.clone());
                    circuit.add(Element::VSource {
                        p,
                        n,
                        wave: wave.clone(),
                    });
                }
                ElemKind::ISource { p, n, wave } => {
                    let p = circuit.node(self.resolve_alias(p));
                    let n = circuit.node(self.resolve_alias(n));
                    circuit.add(Element::ISource {
                        p,
                        n,
                        wave: wave.clone(),
                    });
                }
                ElemKind::Fet { d, g, s, model } => {
                    let table = match tables.get(model) {
                        Some(t) => t.clone(),
                        None => {
                            let t = self.resolve_model(model, bindings, e)?;
                            tables.insert(model.clone(), t.clone());
                            t
                        }
                    };
                    let d = circuit.node(self.resolve_alias(d));
                    let g = circuit.node(self.resolve_alias(g));
                    let s = circuit.node(self.resolve_alias(s));
                    circuit.add(Element::Fet { d, g, s, table });
                }
            }
        }
        Ok(ElaboratedDeck {
            title: self.title.clone(),
            circuit,
            analyses: self.analyses.clone(),
            sources,
            ac_source,
        })
    }

    fn resolve_model(
        &self,
        model: &str,
        bindings: &ModelBindings,
        at: &ElemStmt,
    ) -> Result<Arc<DeviceTable>, ParseError> {
        if let Some(t) = bindings.get(model) {
            return Ok(t);
        }
        match self.model(model) {
            Some(card) if card.kind == "surrogate" => build_surrogate_table(card),
            Some(card) => Err(ParseError {
                line: at.line,
                col: at.col,
                kind: ParseErrorKind::UnknownModel,
                detail: format!(
                    "model '{model}' has kind '{}' and no table binding (bind it via ModelBindings)",
                    card.kind
                ),
            }),
            None => Err(ParseError {
                line: at.line,
                col: at.col,
                kind: ParseErrorKind::UnknownModel,
                detail: format!("instance '{}' references unknown model '{model}'", at.name),
            }),
        }
    }
}

/// Largest per-axis node count a `.model` card (surrogate or gnrfet) may
/// request: the table holds `points²` bias nodes, so this bounds one card
/// at ~40k nodes (a deck submitted to the service cannot reserve an
/// unbounded table).
pub const MAX_TABLE_POINTS: usize = 201;

/// Builds a square-law surrogate [`DeviceTable`] from a
/// `.model <name> surrogate …` card — the cheap, fully deterministic
/// device used by the deck zoo and the CLI's quick mode.
///
/// Parameters (all optional): `polarity` (`n`/`p`), `vth` \[V\], `beta`
/// \[A/V²\], `vdsat` \[V\], `lambda` \[1/V\] (channel-length modulation —
/// a finite saturation `g_ds` keeps per-stage gain bounded so cascaded
/// logic decks converge under damped Newton), `alpha` \[V\] (softplus
/// overdrive width — smooths the square-law turn-on kink), `gleak` \[S\],
/// `cg` \[F/V\], `rs`/`rd` \[Ω\] (folded series resistance), grid bounds
/// `vgs0 vgs1 vds0 vds1` and `points`, the per-axis node count: an integer
/// in `[3, MAX_TABLE_POINTS]` (3 to 201).
fn build_surrogate_table(card: &ModelCard) -> Result<Arc<DeviceTable>, ParseError> {
    let bad_model = |detail: String| ParseError {
        line: card.line,
        col: 1,
        kind: ParseErrorKind::BadModel,
        detail,
    };
    let vth = card.param_f64("vth", 0.2)?;
    let beta = card.param_f64("beta", 4e-5)?;
    let vdsat = card.param_f64("vdsat", 0.08)?;
    let lambda = card.param_f64("lambda", 0.15)?;
    let alpha = card.param_f64("alpha", 0.04)?;
    let gleak = card.param_f64("gleak", 1e-9)?;
    let cg = card.param_f64("cg", 2e-16)?;
    let rs = card.param_f64("rs", 0.0)?;
    let rd = card.param_f64("rd", 0.0)?;
    let grid = TableGrid {
        vgs: (card.param_f64("vgs0", -0.3)?, card.param_f64("vgs1", 0.9)?),
        vds: (card.param_f64("vds0", 0.0)?, card.param_f64("vds1", 0.9)?),
        points: card.param_usize("points", 9, 3..=MAX_TABLE_POINTS)?,
    };
    let polarity = match card.param("polarity").unwrap_or("n") {
        "n" => Polarity::NType,
        "p" => Polarity::PType,
        other => {
            return Err(bad_model(format!(
                "model '{}': polarity must be n or p, got '{other}'",
                card.name
            )))
        }
    };
    let mut table = DeviceTable::from_samples(
        grid,
        Polarity::NType,
        |vg, vd| {
            // Softplus overdrive: smooth at vg = vth, asymptotically the
            // hard square-law far from it. The (1 + lambda*vd) factor keeps
            // saturation g_ds finite, bounding VTC gain per logic stage.
            let x = (vg - vth) / alpha;
            let vov = if x > 30.0 {
                vg - vth
            } else {
                alpha * x.exp().ln_1p()
            };
            beta * vov * vov * (vd / vdsat).tanh() * (1.0 + lambda * vd) + gleak * vd
        },
        |vg, _| cg * vg,
    )
    .map_err(|e| bad_model(format!("model '{}': {e}", card.name)))?;
    if rs != 0.0 || rd != 0.0 {
        table = table
            .fold_series_resistance(rs, rd)
            .map_err(|e| bad_model(format!("model '{}': {e}", card.name)))?;
    }
    if polarity == Polarity::PType {
        table = table.mirrored();
    }
    Ok(Arc::new(table))
}

/// Name → [`DeviceTable`] handles supplied by the caller; consulted before
/// any `.model` card during elaboration.
#[derive(Clone, Debug, Default)]
pub struct ModelBindings {
    map: HashMap<String, Arc<DeviceTable>>,
}

impl ModelBindings {
    /// An empty binding set (surrogate cards still auto-resolve).
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` (case-insensitive) to a table handle.
    pub fn bind(mut self, name: &str, table: Arc<DeviceTable>) -> Self {
        self.map.insert(name.to_lowercase(), table);
        self
    }

    /// Binds `mdl0`, `mdl1`, … to the tables of an [`EmittedDeck`] — the
    /// names [`emit_deck`] assigns in first-use order.
    pub fn from_tables(tables: &[Arc<DeviceTable>]) -> Self {
        let mut b = Self::new();
        for (k, t) in tables.iter().enumerate() {
            b = b.bind(&format!("mdl{k}"), t.clone());
        }
        b
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<Arc<DeviceTable>> {
        self.map.get(name).cloned()
    }
}

/// An elaborated deck: the circuit plus everything needed to drive it.
#[derive(Clone, Debug)]
pub struct ElaboratedDeck {
    /// Deck title.
    pub title: String,
    /// The elaborated circuit (same MNA path as the Rust builders).
    pub circuit: Circuit,
    /// Analysis cards in deck order.
    pub analyses: Vec<AnalysisCard>,
    /// Index of the first `ac`-tagged voltage source, for `.ac` sweeps.
    pub ac_source: Option<usize>,
    sources: Vec<String>,
}

impl ElaboratedDeck {
    /// MNA source index of a named voltage source (`v`-card name).
    pub fn source_index(&self, name: &str) -> Option<usize> {
        let name = name.to_lowercase();
        self.sources.iter().position(|s| *s == name)
    }

    /// Voltage-source names in MNA branch order.
    pub fn source_names(&self) -> &[String] {
        &self.sources
    }

    /// Looks up a node by deck name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.circuit.find_node(&name.to_lowercase())
    }
}

/// Parses SPICE deck text.
///
/// The first line is always the title (SPICE convention). Parsing stops at
/// `.end` or end of input. Subcircuits are flattened here, so the returned
/// [`Deck`] holds a flat element list.
///
/// # Errors
///
/// Returns a positioned [`ParseError`]; this function never panics on
/// malformed input.
pub fn parse_deck(text: &str) -> Result<Deck, ParseError> {
    let (title, stmts) = lex(text)?;
    let mut models: Vec<ModelCard> = Vec::new();
    let mut analyses = Vec::new();
    let mut node_order = Vec::new();
    let mut aliases: HashMap<String, String> = HashMap::new();
    let mut subckts: HashMap<String, Subckt> = HashMap::new();
    let mut top: Vec<BodyItem> = Vec::new();
    // (name, ports, body, defining token) while inside .subckt … .ends.
    let mut open: Option<(String, Vec<String>, Vec<BodyItem>, Tok)> = None;

    for stmt in &stmts {
        let head = &stmt[0];
        let first = head.text.chars().next().unwrap_or(' ');
        if first == '.' {
            match head.text.as_str() {
                ".subckt" => {
                    if open.is_some() {
                        return Err(head.err(
                            ParseErrorKind::Syntax,
                            "nested .subckt definitions are not supported",
                        ));
                    }
                    if stmt.len() < 2 {
                        return Err(head.err(ParseErrorKind::Syntax, ".subckt needs a name"));
                    }
                    let name = stmt[1].text.clone();
                    if subckts.contains_key(&name) {
                        return Err(stmt[1].err(
                            ParseErrorKind::DuplicateSubckt,
                            format!("subcircuit '{name}' is already defined"),
                        ));
                    }
                    let ports = stmt[2..].iter().map(|t| t.text.clone()).collect();
                    open = Some((name, ports, Vec::new(), head.clone()));
                }
                ".ends" => match open.take() {
                    Some((name, ports, body, _)) => {
                        subckts.insert(name, Subckt { ports, body });
                    }
                    None => {
                        return Err(
                            head.err(ParseErrorKind::Syntax, ".ends without an open .subckt")
                        )
                    }
                },
                ".model" => {
                    if stmt.len() < 3 {
                        return Err(
                            head.err(ParseErrorKind::Syntax, ".model needs a name and a kind")
                        );
                    }
                    let name = stmt[1].text.clone();
                    if models.iter().any(|m| m.name == name) {
                        return Err(stmt[1].err(
                            ParseErrorKind::DuplicateModel,
                            format!("model '{name}' is already defined"),
                        ));
                    }
                    models.push(ModelCard {
                        name,
                        kind: stmt[2].text.clone(),
                        params: parse_params(&stmt[3..])?,
                        line: head.line,
                    });
                }
                ".alias" => {
                    if stmt.len() != 3 {
                        return Err(
                            head.err(ParseErrorKind::Syntax, ".alias needs <new> <existing>")
                        );
                    }
                    let new = stmt[1].text.clone();
                    let old = stmt[2].text.clone();
                    if new == old {
                        return Err(
                            stmt[1].err(ParseErrorKind::Syntax, "alias cannot reference itself")
                        );
                    }
                    if aliases.contains_key(&new) {
                        return Err(stmt[1].err(
                            ParseErrorKind::DuplicateAlias,
                            format!("node alias '{new}' is already defined"),
                        ));
                    }
                    aliases.insert(new, old);
                }
                ".nodes" => {
                    for t in &stmt[1..] {
                        node_order.push(t.text.clone());
                    }
                }
                ".op" => analyses.push(AnalysisCard::Op),
                ".dc" => {
                    if stmt.len() != 5 {
                        return Err(head.err(
                            ParseErrorKind::Syntax,
                            ".dc needs <source> <start> <stop> <step>",
                        ));
                    }
                    analyses.push(AnalysisCard::Dc {
                        source: stmt[1].text.clone(),
                        start: number(&stmt[2])?,
                        stop: number(&stmt[3])?,
                        step: number(&stmt[4])?,
                    });
                }
                ".tran" => {
                    if stmt.len() != 3 {
                        return Err(head.err(ParseErrorKind::Syntax, ".tran needs <dt> <tstop>"));
                    }
                    analyses.push(AnalysisCard::Tran {
                        dt: number(&stmt[1])?,
                        t_stop: number(&stmt[2])?,
                    });
                }
                ".ac" => {
                    if stmt.len() != 5 || stmt[1].text != "dec" {
                        return Err(head.err(
                            ParseErrorKind::Syntax,
                            ".ac needs dec <points/decade> <fstart> <fstop>",
                        ));
                    }
                    analyses.push(AnalysisCard::Ac {
                        points_per_decade: integer_in(number(&stmt[2])?, 1..=usize::MAX).map_err(
                            |detail| {
                                stmt[2].err(
                                    ParseErrorKind::BadNumber,
                                    format!(".ac points/decade {detail}"),
                                )
                            },
                        )?,
                        f_start: number(&stmt[3])?,
                        f_stop: number(&stmt[4])?,
                    });
                }
                other => {
                    return Err(head.err(
                        ParseErrorKind::UnknownDirective,
                        format!("unknown directive '{other}'"),
                    ))
                }
            }
            continue;
        }
        // Element or instance card; goes to the open subckt body or top.
        let item = match first {
            'x' => BodyItem::Inst(parse_instance(stmt)?),
            'r' | 'c' | 'v' | 'i' | 'm' => BodyItem::Elem(parse_element(stmt)?),
            _ => {
                return Err(head.err(
                    ParseErrorKind::UnknownElement,
                    format!("'{}' does not start a known card", head.text),
                ))
            }
        };
        match open.as_mut() {
            Some((_, _, body, _)) => body.push(item),
            None => top.push(item),
        }
    }
    if let Some((name, _, _, tok)) = open {
        return Err(tok.err(
            ParseErrorKind::UnclosedSubckt,
            format!("subcircuit '{name}' has no .ends"),
        ));
    }

    let mut elements = Vec::new();
    flatten(&top, &subckts, "", &HashMap::new(), 0, &mut elements)?;
    Ok(Deck {
        title,
        analyses,
        elements,
        models,
        node_order,
        aliases,
    })
}

/// Lexes deck text into (title, statements); handles comments and `+`
/// continuations. Tokens carry the physical line/column they came from.
fn lex(text: &str) -> Result<(String, Vec<Vec<Tok>>), ParseError> {
    let mut lines = text.lines();
    let title = lines.next().unwrap_or("").trim().to_string();
    let mut stmts: Vec<Vec<Tok>> = Vec::new();
    let mut ended = false;
    for (i, raw) in lines.enumerate() {
        let lineno = i + 2; // 1-based, after the title line
        if ended {
            break;
        }
        let trimmed = raw.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        let continuation = trimmed.starts_with('+');
        let toks = tokenize(raw, lineno, continuation);
        if continuation {
            match stmts.last_mut() {
                Some(last) => last.extend(toks),
                None => {
                    return Err(ParseError {
                        line: lineno,
                        col: 1,
                        kind: ParseErrorKind::Syntax,
                        detail: "continuation line with nothing to continue".into(),
                    })
                }
            }
            continue;
        }
        if toks.is_empty() {
            continue;
        }
        if toks[0].text == ".end" {
            ended = true;
            continue;
        }
        stmts.push(toks);
    }
    Ok((title, stmts))
}

/// Tokenizes one physical line: strips inline comments, lower-cases,
/// splits on whitespace and on the single-char tokens `(` `)` `=`.
/// `skip_plus` drops the leading continuation marker.
fn tokenize(raw: &str, line: usize, skip_plus: bool) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    let mut cur_col = 0usize;
    let mut plus_skipped = !skip_plus;
    let flush = |cur: &mut String, col: usize, toks: &mut Vec<Tok>| {
        if !cur.is_empty() {
            toks.push(Tok {
                text: std::mem::take(cur),
                line,
                col,
            });
        }
    };
    for (idx, ch) in raw.char_indices() {
        let col = idx + 1;
        if ch == ';' || ch == '$' {
            break;
        }
        if !plus_skipped {
            if ch.is_whitespace() {
                continue;
            }
            if ch == '+' {
                plus_skipped = true;
                continue;
            }
            plus_skipped = true;
        }
        if ch.is_whitespace() {
            flush(&mut cur, cur_col, &mut toks);
        } else if ch == '(' || ch == ')' || ch == '=' {
            flush(&mut cur, cur_col, &mut toks);
            toks.push(Tok {
                text: ch.to_string(),
                line,
                col,
            });
        } else {
            if cur.is_empty() {
                cur_col = col;
            }
            cur.extend(ch.to_lowercase());
        }
    }
    flush(&mut cur, cur_col, &mut toks);
    toks
}

/// Parses `key = value` sequences (used by `.model` cards).
fn parse_params(toks: &[Tok]) -> Result<Vec<(String, String)>, ParseError> {
    let mut params = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let key = &toks[i];
        if key.text == "=" || key.text == "(" || key.text == ")" {
            i += 1;
            continue;
        }
        if i + 2 < toks.len() && toks[i + 1].text == "=" {
            params.push((key.text.clone(), toks[i + 2].text.clone()));
            i += 3;
        } else if i + 1 < toks.len() && toks[i + 1].text == "=" {
            return Err(key.err(
                ParseErrorKind::Syntax,
                format!("parameter '{}' has no value", key.text),
            ));
        } else {
            return Err(key.err(
                ParseErrorKind::Syntax,
                format!("expected 'key = value', got bare '{}'", key.text),
            ));
        }
    }
    Ok(params)
}

/// Parses the numeric value of a token (with suffix support).
fn number(tok: &Tok) -> Result<f64, ParseError> {
    parse_spice_number(&tok.text).map_err(|detail| tok.err(ParseErrorKind::BadNumber, detail))
}

/// SPICE number grammar: float with optional exponent, then an optional
/// scale suffix (`f p n u m k meg g t`), then an optional unit word
/// (`s`, `v`, `a`, `f`, `hz`, `ohm`, `ohms`, `h`). Anything else after the
/// digits is an error — unlike ngspice, which silently ignores trailing
/// letters, so `3k3` or `10x` are caught instead of misread.
fn parse_spice_number(text: &str) -> Result<f64, String> {
    let bytes = text.as_bytes();
    let mut i = 0;
    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
        i += 1;
    }
    let digits_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i == digits_start {
        return Err(format!("'{text}' is not a number"));
    }
    // Exponent, if the 'e' is followed by digits (else it is a suffix
    // letter — there is no 'e' scale, so bare 'e' tails fail below).
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        let exp_digits = j;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        if j > exp_digits {
            i = j;
        }
    }
    let mantissa: f64 = text[..i]
        .parse()
        .map_err(|_| format!("'{text}' is not a number"))?;
    let tail = &text[i..];
    let (scale, unit) = if let Some(rest) = tail.strip_prefix("meg") {
        (1e6, rest)
    } else {
        match tail.as_bytes().first() {
            Some(b'f') => (1e-15, &tail[1..]),
            Some(b'p') => (1e-12, &tail[1..]),
            Some(b'n') => (1e-9, &tail[1..]),
            Some(b'u') => (1e-6, &tail[1..]),
            Some(b'm') => (1e-3, &tail[1..]),
            Some(b'k') => (1e3, &tail[1..]),
            Some(b'g') => (1e9, &tail[1..]),
            Some(b't') => (1e12, &tail[1..]),
            _ => (1.0, tail),
        }
    };
    const UNITS: &[&str] = &["", "s", "v", "a", "f", "hz", "ohm", "ohms", "h"];
    if !UNITS.contains(&unit) {
        return Err(format!("'{text}' has an invalid suffix '{tail}'"));
    }
    Ok(mantissa * scale)
}

/// Parses an `r`/`c`/`v`/`i`/`m` element card.
fn parse_element(stmt: &[Tok]) -> Result<ElemStmt, ParseError> {
    let head = &stmt[0];
    let name = head.text.clone();
    let arity_err = |want: &str| {
        head.err(
            ParseErrorKind::Syntax,
            format!("'{}' needs {want}", head.text),
        )
    };
    let kind = match name.as_bytes()[0] {
        b'r' => {
            if stmt.len() != 4 {
                return Err(arity_err("<a> <b> <ohms>"));
            }
            ElemKind::Resistor {
                a: stmt[1].text.clone(),
                b: stmt[2].text.clone(),
                ohms: number(&stmt[3])?,
            }
        }
        b'c' => {
            if stmt.len() != 4 {
                return Err(arity_err("<a> <b> <farads>"));
            }
            ElemKind::Capacitor {
                a: stmt[1].text.clone(),
                b: stmt[2].text.clone(),
                farads: number(&stmt[3])?,
            }
        }
        b'v' => {
            if stmt.len() < 3 {
                return Err(arity_err("<p> <n> <value | dc v | pulse(…)>"));
            }
            let (wave, ac_mag) = parse_source_spec(head, &stmt[3..])?;
            ElemKind::VSource {
                p: stmt[1].text.clone(),
                n: stmt[2].text.clone(),
                wave,
                ac_mag,
            }
        }
        b'i' => {
            if stmt.len() < 3 {
                return Err(arity_err("<p> <n> <value | dc v | pulse(…)>"));
            }
            let (wave, _) = parse_source_spec(head, &stmt[3..])?;
            ElemKind::ISource {
                p: stmt[1].text.clone(),
                n: stmt[2].text.clone(),
                wave,
            }
        }
        b'm' => {
            if stmt.len() != 5 {
                return Err(arity_err("<d> <g> <s> <model>"));
            }
            ElemKind::Fet {
                d: stmt[1].text.clone(),
                g: stmt[2].text.clone(),
                s: stmt[3].text.clone(),
                model: stmt[4].text.clone(),
            }
        }
        _ => unreachable!("dispatched on first char"),
    };
    Ok(ElemStmt {
        name,
        kind,
        line: head.line,
        col: head.col,
    })
}

/// Parses a source value spec: `[dc] <v>`, `pulse( … 7 values … )`, and
/// an optional `ac <mag>` tag (voltage sources only; ignored on `i`).
fn parse_source_spec(head: &Tok, toks: &[Tok]) -> Result<(Waveform, Option<f64>), ParseError> {
    let mut wave: Option<Waveform> = None;
    let mut ac_mag = None;
    let mut i = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "dc" => {
                let v = toks
                    .get(i + 1)
                    .ok_or_else(|| toks[i].err(ParseErrorKind::Syntax, "dc needs a value"))?;
                wave = Some(Waveform::Dc(number(v)?));
                i += 2;
            }
            "ac" => {
                let v = toks
                    .get(i + 1)
                    .ok_or_else(|| toks[i].err(ParseErrorKind::Syntax, "ac needs a magnitude"))?;
                ac_mag = Some(number(v)?);
                i += 2;
            }
            "pulse" => {
                let mut vals = Vec::new();
                let mut j = i + 1;
                while j < toks.len() && vals.len() < 7 {
                    let t = &toks[j].text;
                    if t == "(" || t == ")" {
                        j += 1;
                        continue;
                    }
                    vals.push(number(&toks[j])?);
                    j += 1;
                }
                if vals.len() != 7 {
                    return Err(toks[i].err(
                        ParseErrorKind::Syntax,
                        "pulse needs 7 values: v1 v2 delay rise fall width period",
                    ));
                }
                wave = Some(Waveform::Pulse {
                    low: vals[0],
                    high: vals[1],
                    delay: vals[2],
                    rise: vals[3],
                    fall: vals[4],
                    width: vals[5],
                    period: vals[6],
                });
                // Skip the trailing ')' if present.
                if j < toks.len() && toks[j].text == ")" {
                    j += 1;
                }
                i = j;
            }
            _ if wave.is_none() => {
                wave = Some(Waveform::Dc(number(&toks[i])?));
                i += 1;
            }
            other => {
                return Err(toks[i].err(
                    ParseErrorKind::Syntax,
                    format!("unexpected token '{other}' in source '{}'", head.text),
                ))
            }
        }
    }
    Ok((wave.unwrap_or(Waveform::Dc(0.0)), ac_mag))
}

/// Parses an `x` instance card: `x<name> <node>… <subckt>`.
fn parse_instance(stmt: &[Tok]) -> Result<Inst, ParseError> {
    let head = &stmt[0];
    if stmt.len() < 2 {
        return Err(head.err(
            ParseErrorKind::Syntax,
            format!("'{}' needs nodes and a subcircuit name", head.text),
        ));
    }
    let subckt = stmt[stmt.len() - 1].text.clone();
    let nodes = stmt[1..stmt.len() - 1]
        .iter()
        .map(|t| t.text.clone())
        .collect();
    Ok(Inst {
        name: head.text.clone(),
        nodes,
        subckt,
        line: head.line,
        col: head.col,
    })
}

fn is_ground(name: &str) -> bool {
    name == "0" || name == "gnd"
}

/// Recursively expands instances. Internal subcircuit nodes and element
/// names get the `x<inst>.` hierarchical prefix; ports map to the caller's
/// nodes; ground is never remapped.
fn flatten(
    items: &[BodyItem],
    subckts: &HashMap<String, Subckt>,
    prefix: &str,
    port_map: &HashMap<String, String>,
    depth: usize,
    out: &mut Vec<ElemStmt>,
) -> Result<(), ParseError> {
    let map_node = |name: &str| -> String {
        if is_ground(name) {
            "0".to_string()
        } else if let Some(mapped) = port_map.get(name) {
            mapped.clone()
        } else {
            format!("{prefix}{name}")
        }
    };
    for item in items {
        match item {
            BodyItem::Elem(e) => {
                let kind = match &e.kind {
                    ElemKind::Resistor { a, b, ohms } => ElemKind::Resistor {
                        a: map_node(a),
                        b: map_node(b),
                        ohms: *ohms,
                    },
                    ElemKind::Capacitor { a, b, farads } => ElemKind::Capacitor {
                        a: map_node(a),
                        b: map_node(b),
                        farads: *farads,
                    },
                    ElemKind::VSource { p, n, wave, ac_mag } => ElemKind::VSource {
                        p: map_node(p),
                        n: map_node(n),
                        wave: wave.clone(),
                        ac_mag: *ac_mag,
                    },
                    ElemKind::ISource { p, n, wave } => ElemKind::ISource {
                        p: map_node(p),
                        n: map_node(n),
                        wave: wave.clone(),
                    },
                    ElemKind::Fet { d, g, s, model } => ElemKind::Fet {
                        d: map_node(d),
                        g: map_node(g),
                        s: map_node(s),
                        model: model.clone(),
                    },
                };
                out.push(ElemStmt {
                    name: format!("{prefix}{}", e.name),
                    kind,
                    line: e.line,
                    col: e.col,
                });
            }
            BodyItem::Inst(inst) => {
                if depth >= MAX_SUBCKT_DEPTH {
                    return Err(ParseError {
                        line: inst.line,
                        col: inst.col,
                        kind: ParseErrorKind::RecursiveSubckt,
                        detail: format!(
                            "subcircuit expansion deeper than {MAX_SUBCKT_DEPTH} at '{}' (cycle?)",
                            inst.name
                        ),
                    });
                }
                let def = subckts.get(&inst.subckt).ok_or_else(|| ParseError {
                    line: inst.line,
                    col: inst.col,
                    kind: ParseErrorKind::UnknownSubckt,
                    detail: format!("unknown subcircuit '{}'", inst.subckt),
                })?;
                if def.ports.len() != inst.nodes.len() {
                    return Err(ParseError {
                        line: inst.line,
                        col: inst.col,
                        kind: ParseErrorKind::Syntax,
                        detail: format!(
                            "'{}' connects {} nodes but '{}' has {} ports",
                            inst.name,
                            inst.nodes.len(),
                            inst.subckt,
                            def.ports.len()
                        ),
                    });
                }
                let inner_map: HashMap<String, String> = def
                    .ports
                    .iter()
                    .cloned()
                    .zip(inst.nodes.iter().map(|n| map_node(n)))
                    .collect();
                let inner_prefix = format!("{prefix}{}.", inst.name);
                flatten(
                    &def.body,
                    subckts,
                    &inner_prefix,
                    &inner_map,
                    depth + 1,
                    out,
                )?;
            }
        }
    }
    Ok(())
}

/// A deck serialised by [`emit_deck`] plus the device-table handles its
/// `.model mdlK extern` cards must be bound to when reparsing.
#[derive(Clone, Debug)]
pub struct EmittedDeck {
    /// The deck text.
    pub text: String,
    /// Distinct FET tables in first-use order (`mdl0`, `mdl1`, …).
    pub models: Vec<Arc<DeviceTable>>,
}

impl EmittedDeck {
    /// Bindings that map the emitted model names back to their tables.
    pub fn bindings(&self) -> ModelBindings {
        ModelBindings::from_tables(&self.models)
    }
}

/// Serialises a circuit to deck text whose reparse elaborates to a
/// bit-identical circuit: a `.nodes` directive pins the interning order,
/// floats print with shortest round-trip formatting, and FET models are
/// deduplicated by `Arc` identity into `extern` cards.
///
/// # Errors
///
/// Returns [`SpiceError::Config`] for non-finite element values or for
/// anonymous nodes whose synthesised `_<id>` name collides with a real
/// node name.
pub fn emit_deck(circuit: &Circuit, title: &str) -> Result<EmittedDeck, SpiceError> {
    let names = circuit.node_names();
    let node_name = |id: NodeId| -> Result<String, SpiceError> {
        if id == NodeId::GROUND {
            return Ok("0".to_string());
        }
        match names.get(id.0).copied().flatten() {
            Some(n) => Ok(n.to_string()),
            None => {
                let synth = format!("_{}", id.0);
                if circuit.find_node(&synth).is_some() {
                    return Err(SpiceError::config(format!(
                        "anonymous node {} collides with existing node '{synth}'",
                        id.0
                    )));
                }
                Ok(synth)
            }
        }
    };
    let num = |v: f64| -> Result<String, SpiceError> {
        if !v.is_finite() {
            return Err(SpiceError::config(format!("non-finite value {v} in deck")));
        }
        Ok(format!("{v:?}"))
    };
    let wave_str = |w: &Waveform| -> Result<String, SpiceError> {
        Ok(match w {
            Waveform::Dc(v) => format!("dc {}", num(*v)?),
            Waveform::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => format!(
                "pulse( {} {} {} {} {} {} {} )",
                num(*low)?,
                num(*high)?,
                num(*delay)?,
                num(*rise)?,
                num(*fall)?,
                num(*width)?,
                num(*period)?
            ),
        })
    };

    let mut text = format!("* {title}\n");
    let mut order = String::from(".nodes");
    for id in 1..circuit.node_count() {
        order.push(' ');
        order.push_str(&node_name(NodeId(id))?);
    }
    text.push_str(&order);
    text.push('\n');

    let mut models: Vec<Arc<DeviceTable>> = Vec::new();
    let model_name = |table: &Arc<DeviceTable>, models: &mut Vec<Arc<DeviceTable>>| match models
        .iter()
        .position(|t| Arc::ptr_eq(t, table))
    {
        Some(k) => format!("mdl{k}"),
        None => {
            models.push(table.clone());
            format!("mdl{}", models.len() - 1)
        }
    };
    for (k, e) in circuit.elements().iter().enumerate() {
        let card = match e {
            Element::Resistor { a, b, ohms } => {
                format!("r{k} {} {} {}", node_name(*a)?, node_name(*b)?, num(*ohms)?)
            }
            Element::Capacitor { a, b, farads } => {
                format!(
                    "c{k} {} {} {}",
                    node_name(*a)?,
                    node_name(*b)?,
                    num(*farads)?
                )
            }
            Element::VSource { p, n, wave } => {
                format!(
                    "v{k} {} {} {}",
                    node_name(*p)?,
                    node_name(*n)?,
                    wave_str(wave)?
                )
            }
            Element::ISource { p, n, wave } => {
                format!(
                    "i{k} {} {} {}",
                    node_name(*p)?,
                    node_name(*n)?,
                    wave_str(wave)?
                )
            }
            Element::Fet { d, g, s, table } => {
                let model = model_name(table, &mut models);
                format!(
                    "m{k} {} {} {} {model}",
                    node_name(*d)?,
                    node_name(*g)?,
                    node_name(*s)?
                )
            }
        };
        text.push_str(&card);
        text.push('\n');
    }
    for k in 0..models.len() {
        text.push_str(&format!(".model mdl{k} extern\n"));
    }
    text.push_str(".end\n");
    Ok(EmittedDeck { text, models })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Deck {
        parse_deck(text).expect("deck parses")
    }

    /// Scaled values are `mantissa * scale` products, which can sit one
    /// ulp away from the equivalent literal — pin to within 1e-15 rel.
    fn close(text: &str, expect: f64) {
        let got = parse_spice_number(text).expect(text);
        assert!(
            (got / expect - 1.0).abs() < 1e-15,
            "{text}: got {got:e}, expected {expect:e}"
        );
    }

    #[test]
    fn suffix_goldens() {
        close("10u", 1e-5);
        close("100n", 1e-7);
        close("2meg", 2e6);
        close("1.5k", 1500.0);
        close("3p", 3e-12);
        close("4f", 4e-15);
        close("0.5m", 5e-4);
        close("2g", 2e9);
        close("1t", 1e12);
        // Units after the scale (or alone) are fine.
        close("10nf", 1e-8);
        close("1kohm", 1e3);
        close("5v", 5.0);
        close("1meghz", 1e6);
        // Exponents are not suffixes.
        assert_eq!(parse_spice_number("2e-18").unwrap(), 2e-18);
        assert_eq!(parse_spice_number("-0.35").unwrap(), -0.35);
        // Rejections.
        assert!(parse_spice_number("3k3").is_err());
        assert!(parse_spice_number("10x").is_err());
        assert!(parse_spice_number("q").is_err());
        assert!(parse_spice_number("1e").is_err());
    }

    #[test]
    fn parses_rc_divider_with_continuation_and_comments() {
        let deck = parse(
            "rc divider\n\
             * a comment line\n\
             v1 in 0 dc 1.0 ; inline comment\n\
             r1 in mid 2K\n\
             + \n\
             r2 mid 0 1k $ trailing\n\
             c1 mid 0 1u\n\
             .op\n\
             .end\n\
             r_ignored after end 1k\n",
        );
        assert_eq!(deck.title, "rc divider");
        assert_eq!(deck.element_count(), 4);
        assert_eq!(deck.analyses, vec![AnalysisCard::Op]);
        let elab = deck.elaborate(&ModelBindings::new()).expect("elaborates");
        assert_eq!(elab.circuit.node_count(), 3);
        assert_eq!(elab.source_index("v1"), Some(0));
    }

    #[test]
    fn subckt_flattening_prefixes_internal_nodes() {
        let deck = parse(
            "flatten test\n\
             .subckt divider top bot\n\
             r1 top mid 1k\n\
             r2 mid bot 1k\n\
             .ends\n\
             v1 in 0 1.0\n\
             x1 in 0 divider\n\
             x2 in 0 divider\n",
        );
        let elab = deck.elaborate(&ModelBindings::new()).expect("elaborates");
        assert!(elab.node("x1.mid").is_some());
        assert!(elab.node("x2.mid").is_some());
        assert_eq!(deck.element_count(), 5);
    }

    #[test]
    fn malformed_decks_are_typed_errors() {
        // Unclosed subckt — error points at the .subckt line.
        let e = parse_deck("t\n.subckt foo a b\nr1 a b 1k\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnclosedSubckt);
        assert_eq!(e.line, 2);
        // Duplicate alias.
        let e = parse_deck("t\n.alias s q\n.alias s qb\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::DuplicateAlias);
        assert_eq!(e.line, 3);
        // Bad number suffix with column.
        let e = parse_deck("t\nr1 a 0 3k3\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::BadNumber);
        assert_eq!((e.line, e.col), (2, 8));
        // Unknown model surfaces at elaboration with the instance line.
        let deck = parse("t\nv1 d 0 1.0\nm1 d g 0 nosuch\nr1 g 0 1k\n");
        let e = deck.elaborate(&ModelBindings::new()).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownModel);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn alias_merges_nodes() {
        let deck = parse("t\n.alias vddint vdd\nv1 vdd 0 1.0\nr1 vddint 0 1k\n");
        let elab = deck.elaborate(&ModelBindings::new()).expect("elaborates");
        assert_eq!(elab.circuit.node_count(), 2); // ground + vdd only
    }

    #[test]
    fn surrogate_model_elaborates_and_is_shared() {
        let deck = parse(
            "surrogate\n\
             .model nmos surrogate vth=0.2 beta=4e-5\n\
             vdd vdd 0 0.8\n\
             vin in 0 0.8\n\
             m1 out in 0 nmos\n\
             m2 out2 in 0 nmos\n\
             r1 vdd out 100k\n\
             r2 vdd out2 100k\n",
        );
        let elab = deck.elaborate(&ModelBindings::new()).expect("elaborates");
        let tables: Vec<_> = elab
            .circuit
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Fet { table, .. } => Some(table.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(tables.len(), 2);
        assert!(Arc::ptr_eq(&tables[0], &tables[1]));
        assert!(tables[0].current(0.8, 0.4) > 1e-6);
    }

    #[test]
    fn pulse_and_ac_specs() {
        let deck = parse(
            "pulses\n\
             vin in 0 pulse( 0 0.8 1n 10p 10p 400p 1n ) ac 1.0\n\
             r1 in 0 1k\n\
             .tran 10p 2n\n\
             .ac dec 10 1meg 1g\n",
        );
        let elab = deck.elaborate(&ModelBindings::new()).expect("elaborates");
        assert_eq!(elab.ac_source, Some(0));
        match &elab.circuit.elements()[0] {
            Element::VSource {
                wave: Waveform::Pulse { high, period, .. },
                ..
            } => {
                assert_eq!(*high, 0.8);
                assert_eq!(*period, 1e-9);
            }
            other => panic!("expected pulse source, got {other:?}"),
        }
        assert_eq!(
            deck.analyses,
            vec![
                AnalysisCard::Tran {
                    dt: 1e-11,
                    t_stop: 2e-9
                },
                AnalysisCard::Ac {
                    points_per_decade: 10,
                    f_start: 1e6,
                    f_stop: 1e9
                }
            ]
        );
    }

    #[test]
    fn emit_roundtrip_is_bit_identical() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Pulse {
                low: 0.0,
                high: 0.4,
                delay: 1e-10,
                rise: 2e-11,
                fall: 2e-11,
                width: 4e-10,
                period: 1e-9,
            },
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 12_345.678_9,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 3.7e-18,
        });
        c.add(Element::ISource {
            p: out,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1e-9),
        });
        let emitted = emit_deck(&c, "roundtrip").expect("emits");
        let deck = parse_deck(&emitted.text).expect("reparses");
        let elab = deck.elaborate(&emitted.bindings()).expect("elaborates");
        assert_eq!(elab.circuit.node_count(), c.node_count());
        assert_eq!(elab.circuit.elements().len(), c.elements().len());
        for (a, b) in c.elements().iter().zip(elab.circuit.elements()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
