//! Smoke tests for the `liar` command-line tool.

use std::process::Command;

fn liar(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_liar"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn optimize_finds_the_latent_dot() {
    let out = liar(&[
        "optimize",
        "--target",
        "blas",
        "--steps",
        "6",
        "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 × dot"), "{stdout}");
    assert!(stdout.contains("(dot #16 xs"), "{stdout}");
}

#[test]
fn kernel_subcommand_runs_table_rows() {
    let out = liar(&["kernel", "--target", "pytorch", "vsum"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 × sum"), "{stdout}");
}

#[test]
fn kernels_lists_table_one() {
    let out = liar(&["kernels"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["2mm", "vsum", "stencil2d", "gemver"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn emit_c_produces_cblas() {
    let out = liar(&["emit-c", "gemv"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("cblas_dgemv"), "{stdout}");
}

#[test]
fn bad_input_fails_gracefully() {
    assert!(!liar(&["optimize", "(((("]).status.success());
    assert!(!liar(&["kernel", "not-a-kernel"]).status.success());
    assert!(!liar(&["frobnicate"]).status.success());
    assert!(!liar(&["optimize", "--target", "fortran", "(+ 1 2)"]).status.success());
    assert!(!liar(&["explain", "(((("]).status.success());
    assert!(!liar(&["dot", "not-a-kernel-or-expr ("]).status.success());
}

#[test]
fn explain_prints_a_replayed_certificate() {
    let out = liar(&["explain", "vsum", "--target", "blas", "--steps", "6"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // A numbered proof from the source kernel to the dot lifting…
    assert!(stdout.contains("   0: (ifold #8 0"), "{stdout}");
    assert!(stdout.contains("idiom-dot"), "{stdout}");
    assert!(stdout.contains("[1 × dot]"), "{stdout}");
    // …that the CLI replayed before claiming success.
    assert!(stdout.contains("proof replayed OK"), "{stdout}");
}

#[test]
fn explain_accepts_raw_expressions() {
    let out = liar(&[
        "explain",
        "--target",
        "pytorch",
        "--steps",
        "6",
        "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 × sum"), "{stdout}");
    assert!(stdout.contains("proof replayed OK"), "{stdout}");
}

#[test]
fn dot_renders_the_proof_path() {
    let out = liar(&[
        "dot",
        "--steps",
        "6",
        "--explain",
        "(ifold #4 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph egraph"), "{stdout}");
    // The certificate path is emphasized: bold classes and red edges.
    assert!(stdout.contains("style=bold; color=red"), "{stdout}");
    assert!(stdout.contains(", color=red]"), "{stdout}");
    // Without --explain nothing is highlighted.
    let plain = liar(&["dot", "--steps", "2", "(+ a b)"]);
    assert!(plain.status.success());
    let plain = String::from_utf8(plain.stdout).unwrap();
    assert!(plain.starts_with("digraph egraph"), "{plain}");
    assert!(!plain.contains("style=bold"), "{plain}");
}

#[test]
fn optimize_verbose_prints_top_rules() {
    let out = liar(&[
        "optimize",
        "--verbose",
        "--steps",
        "5",
        "--target",
        "blas",
        "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("rule applications ("), "{stdout}");
    assert!(stdout.contains("× idiom-dot"), "{stdout}");
    // Zero-application rules are not listed.
    assert!(!stdout.contains(" 0 × "), "{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["optimize", "--bogus", "(+ 1 2)"][..], // unknown flag
        &["optimize"],                           // missing positional
        &["optimize", "--steps"],                // missing flag value
        &["optimize", "--steps", "abc", "(+ 1 2)"], // non-numeric value
        &["help", "not-a-command"],
        &["submit"], // no program and no admin op
    ] {
        let out = liar(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn help_lists_commands_and_flags() {
    let out = liar(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for cmd in ["optimize", "kernel", "emit-c", "kernels", "explain", "dot", "serve", "submit"] {
        assert!(stdout.contains(cmd), "global help missing {cmd}: {stdout}");
    }
    let out = liar(&["help", "optimize"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in ["--target", "--targets", "--all-targets", "--steps", "--threads"] {
        assert!(stdout.contains(flag), "optimize help missing {flag}: {stdout}");
    }
    // `help` with no command behaves like --help and exits 0; a bare
    // `liar` prints the same text but exits 2 (it did not do anything).
    assert!(liar(&["help"]).status.success());
    assert_eq!(liar(&[]).status.code(), Some(2));
}

/// End-to-end through the real binaries: start `liar serve` on an
/// ephemeral loopback port, drive it with `liar submit`, and shut it
/// down over the protocol.
#[test]
fn serve_and_submit_roundtrip() {
    use std::io::BufRead;

    let mut server = Command::new(env!("CARGO_BIN_EXE_liar"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    // The first stdout line announces the bound address.
    let stdout = server.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").unwrap();
    let addr = banner
        .rsplit_once(' ')
        .map(|(_, addr)| addr.to_string())
        .expect("address in banner");

    let submit = |extra: &[&str]| {
        let mut args = vec!["submit", "--addr", &addr];
        args.extend_from_slice(extra);
        liar(&args)
    };

    let out = submit(&["--ping"]);
    assert!(out.status.success(), "{out:?}");

    let out = submit(&["--kernel", "vsum", "--targets", "blas", "--steps", "6"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache: miss"), "{text}");
    assert!(text.contains("1 × dot"), "{text}");

    let out = submit(&["--kernel", "vsum", "--targets", "blas", "--steps", "6"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache: hit"), "{text}");

    // The explain op, end to end: a fresh fingerprint (miss, not a hit
    // of the plain run) whose solution carries the printed certificate.
    let out = submit(&["--kernel", "vsum", "--targets", "blas", "--steps", "6", "--explain"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache: miss"), "{text}");
    assert!(text.contains("proof ("), "{text}");
    assert!(text.contains("idiom-dot"), "{text}");

    let out = submit(&["--stats"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("1 hits"), "{text}");

    // Unreachable daemons are a runtime failure (exit 1), not a usage
    // error.
    let out = liar(&["submit", "--addr", "127.0.0.1:1", "--ping"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = submit(&["--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    let status = server.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "{status:?}");
}

/// Run `liar profile` with `args` and check that its self-times add up:
/// every runner and pipeline span nests under the one root span, so
/// Σ self over the phase and rule rows equals the root's wall time
/// (within 2%: the JSON rounds each row to µs). Returns the document.
fn assert_profile_self_times_sum_to_wall_time(args: &[&str]) -> liar::serve::json::Json {
    use liar::serve::json;

    let out = liar(args);
    assert!(out.status.success(), "{out:?}");
    let doc = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("profile JSON parses");
    let wall = doc.get("wall_ms").and_then(|w| w.as_f64()).expect("wall_ms");
    let self_sum = |key: &str| -> f64 {
        let rows = doc.get(key).and_then(|r| r.as_arr()).expect("rows");
        rows.iter()
            .map(|r| r.get("self_ms").and_then(|v| v.as_f64()).expect("self_ms"))
            .sum()
    };
    let total = self_sum("phases") + self_sum("rules");
    assert!(wall > 0.0, "no root span");
    assert!(
        (total - wall).abs() <= 0.02 * wall,
        "{args:?}: Σ self {total:.3} ms vs wall {wall:.3} ms"
    );
    doc
}

#[test]
fn profile_self_times_sum_to_wall_time() {
    assert_profile_self_times_sum_to_wall_time(&["profile", "mvt", "--json"]);
}

/// `--target all` profiles the union ruleset the daemon runs: the JSON
/// names every target, the per-rule table holds idioms of more than one
/// target, and the self-times still add up.
#[test]
fn profile_all_targets_self_times_sum_to_wall_time() {
    let doc = assert_profile_self_times_sum_to_wall_time(&[
        "profile", "gemv", "--target", "all", "--json",
    ]);
    let strings = |key: &str, field: Option<&str>| -> Vec<String> {
        let rows = doc.get(key).and_then(|r| r.as_arr()).expect(key);
        rows.iter()
            .map(|r| field.map_or(Some(r), |f| r.get(f)))
            .map(|v| v.and_then(|v| v.as_str()).expect("string").to_string())
            .collect()
    };
    assert_eq!(strings("target", None), ["pure-c", "blas", "pytorch"]);
    assert_eq!(strings("solution", None).len(), 3);
    let rules = strings("rules", Some("rule"));
    for idiom in ["idiom-gemv", "idiom-lift-add"] {
        assert!(
            rules.iter().any(|r| r == idiom),
            "no {idiom} row in {rules:?}"
        );
    }
}
