//! The `gnr-spice` binary rejects decks whose counts would be truncated
//! or would make it allocate without bound, with a typed message and
//! exit code 3 instead of a panic or a silently different analysis.

use std::process::Command;

/// Runs `gnr-spice <cmd>` on `deck` (written to a per-test file) and
/// returns the exit code and stderr.
fn run(test: &str, cmd: &str, deck: &str) -> (i32, String) {
    let path = std::env::temp_dir().join(format!("gnr-spice-cli-{}-{test}.sp", std::process::id()));
    std::fs::write(&path, deck).expect("write deck");
    let out = Command::new(env!("CARGO_BIN_EXE_gnr-spice"))
        .arg(cmd)
        .arg(&path)
        .output()
        .expect("run gnr-spice");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code().expect("exited, not killed"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const DIVIDER: &str = "* t\nv1 a 0 dc 1\nr1 a b 1k\nr2 b 0 1k\n";

#[test]
fn dc_sweep_with_too_many_points_is_a_config_error() {
    let (code, err) = run("dc", "dc", &format!("{DIVIDER}.dc v1 0 1 1e-300\n.end\n"));
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("exceeds 100000 points"), "{err}");
}

#[test]
fn ac_sweep_with_too_many_frequencies_is_a_config_error() {
    let (code, err) = run("ac", "ac", &format!("{DIVIDER}.ac dec 1e6 1 1e6\n.end\n"));
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("exceeds 100000 frequencies"), "{err}");
}

#[test]
fn gnrfet_card_counts_must_be_integers_in_range() {
    for (test, params, key) in [
        ("points-frac", "points=3.9", "'points'"),
        ("points-huge", "points=100000", "'points'"),
        ("ribbons-zero", "ribbons=0", "'ribbons'"),
        ("n-frac", "n=12.5", "'n'"),
        ("n-small", "n=2", "'n'"),
        ("n-huge", "n=100000", "'n'"),
    ] {
        let deck = format!("{DIVIDER}.model g gnrfet {params}\n.op\n.end\n");
        let (code, err) = run(test, "dc", &deck);
        assert_eq!(code, 3, "{params}: {err}");
        assert!(
            err.contains(key) && err.contains("must be an integer"),
            "{params}: {err}"
        );
    }
}
