//! Seeded deck generators. The program only ever sees the deck text these
//! produce; the expected answers they return are computed here, outside
//! the program.

use std::fmt::Write;

const SURROGATE_MODELS: &str = ".model nmos surrogate polarity=n\n\
                                .model pmos surrogate polarity=p\n";

const INV_SUBCKT: &str = ".subckt inv in out vdd\n\
                          mn out in 0 nmos\n\
                          mp out in vdd pmos\n\
                          .ends\n";

/// A ring oscillator of `stages` surrogate inverters with `cap_f` on every
/// stage node (`n0` … `n{stages-1}`). With `t_stop` it carries a `.tran`
/// card after its `.op`; without, only `.op`.
pub fn surrogate_ring(stages: usize, cap_f: f64, tran: Option<(f64, f64)>) -> String {
    let mut s =
        format!("* surrogate ring oscillator, {stages} stages\n{SURROGATE_MODELS}{INV_SUBCKT}");
    s.push_str("vdd vdd 0 dc 0.8\n");
    for i in 0..stages {
        let next = (i + 1) % stages;
        writeln!(s, "x{i} n{i} n{next} vdd inv").expect("write to String");
        writeln!(s, "c{i} n{i} 0 {cap_f:e}").expect("write to String");
    }
    s.push_str(".op\n");
    if let Some((dt, t_stop)) = tran {
        writeln!(s, ".tran {dt:e} {t_stop:e}").expect("write to String");
    }
    s.push_str(".end\n");
    s
}

/// A balanced tree of 2-input NAND gates over `inputs` (one source per
/// input, high = 0.8 V). Returns the deck and the logic level the root
/// (`out`) must settle to.
pub fn nand_tree(inputs: &[bool]) -> (String, bool) {
    let mut s = format!("* nand tree, {} inputs\n{SURROGATE_MODELS}", inputs.len());
    s.push_str(
        ".subckt nand2 a b out vdd\n\
         mn0 out a m nmos\n\
         mn1 m b 0 nmos\n\
         mp0 out a vdd pmos\n\
         mp1 out b vdd pmos\n\
         .ends\n\
         vdd vdd 0 dc 0.8\n",
    );
    let mut level: Vec<(String, bool)> = Vec::with_capacity(inputs.len());
    for (i, &high) in inputs.iter().enumerate() {
        let v = if high { 0.8 } else { 0.0 };
        writeln!(s, "vi{i} i{i} 0 dc {v}").expect("write to String");
        level.push((format!("i{i}"), high));
    }
    let mut gate = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [(a, va), (b, vb)] => {
                    let name = if level.len() == 2 {
                        "out".to_string()
                    } else {
                        format!("g{gate}")
                    };
                    writeln!(s, "x{gate} {a} {b} {name} vdd nand2").expect("write to String");
                    next.push((name, !(*va && *vb)));
                    gate += 1;
                }
                [single] => next.push(single.clone()),
                _ => unreachable!("chunks(2) yields one or two items"),
            }
        }
        level = next;
    }
    s.push_str(".op\n.end\n");
    let root = level.pop().is_some_and(|(_, v)| v);
    (s, root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_tree_root_follows_nand_logic() {
        // nand(nand(1,1), nand(1,0)) = nand(0, 1) = 1
        let (deck, root) = nand_tree(&[true, true, true, false]);
        assert!(root);
        assert!(deck.contains("x2 g0 g1 out vdd nand2"));
        // nand(1,1) = 0
        assert!(!nand_tree(&[true, true]).1);
    }

    #[test]
    fn ring_deck_closes_the_loop() {
        let deck = surrogate_ring(3, 1e-16, Some((2e-12, 1e-9)));
        assert!(deck.contains("x2 n2 n0 vdd inv"));
        assert!(deck.contains(".tran 2e-12 1e-9"));
    }
}
