//! Never-panic sweeps for the two text and byte parsers untrusted input
//! reaches: the serve daemon's frame reader (`read_frame`, then
//! `Request::from_payload`) and the IR parser (`Expr::from_str`). Valid
//! inputs are truncated at every length, bit-flipped at seeded positions,
//! and replaced by seeded random bytes and token soup; every input must
//! give `Ok` or a structured error, never a panic. Modeled on the
//! snapshot bit-flip sweep in `snapshot_determinism.rs`.
//!
//! The generator is a seeded splitmix64; a failure names the seed and the
//! case index that produced the input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use liar::ir::Expr;
use liar::kernels::Kernel;
use liar::serve::protocol::{read_frame, write_frame, Request};
use liar::serve::OptimizeRequest;

/// splitmix64 (Steele et al., OOPSLA 2014).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SEED: u64 = 0x4e55_2024;

/// Random cases per sweep on top of the exhaustive truncations.
const RANDOM_CASES: usize = 2_000;

/// Small enough that the sweep also drives the oversized-frame paths.
const MAX_FRAME: usize = 512;

/// Run `f` on `input`, turning a panic into a test failure that names the
/// case (`what`, case index) and the seed of the sweep.
fn no_panic<T>(what: &str, case: usize, input: T, f: impl FnOnce(T)) {
    if catch_unwind(AssertUnwindSafe(|| f(input))).is_err() {
        panic!("{what} case {case} (seed {SEED:#x}) panicked");
    }
}

/// `valid` mutated: bit flips at seeded positions, a seeded truncation, or
/// seeded random bytes of a seeded length.
fn mutate(rng: &mut Rng, valid: &[u8]) -> Vec<u8> {
    match rng.below(3) {
        0 => {
            let mut out = valid.to_vec();
            for _ in 0..=rng.below(4) {
                let pos = rng.below(out.len());
                out[pos] ^= 1 << rng.below(8);
            }
            out
        }
        1 => valid[..rng.below(valid.len())].to_vec(),
        _ => (0..rng.below(2 * valid.len()))
            .map(|_| rng.next() as u8)
            .collect(),
    }
}

/// Read frames until the stream ends or errors, decoding each payload.
fn drain_frames(bytes: Vec<u8>) {
    let mut reader = bytes.as_slice();
    for _ in 0..=bytes.len() {
        match read_frame(&mut reader, MAX_FRAME) {
            Ok(Some(payload)) => {
                let _ = Request::from_payload(&payload);
            }
            Ok(None) | Err(_) => return,
        }
    }
}

fn valid_frames() -> Vec<Vec<u8>> {
    [Kernel::Vsum, Kernel::Gemv]
        .iter()
        .map(|k| {
            let payload =
                Request::Optimize(OptimizeRequest::new(k.expr(8).to_string())).to_payload();
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).unwrap();
            // Two frames back to back: the reader must stay aligned.
            frame.extend_from_within(..);
            frame
        })
        .collect()
}

#[test]
fn read_frame_never_panics() {
    let frames = valid_frames();
    let mut case = 0;
    for frame in &frames {
        drain_frames(frame.clone());
        for len in 0..frame.len() {
            no_panic(
                "frame truncation",
                case,
                frame[..len].to_vec(),
                drain_frames,
            );
            case += 1;
        }
    }
    let mut rng = Rng(SEED);
    for _ in 0..RANDOM_CASES {
        let frame = &frames[rng.below(frames.len())];
        no_panic(
            "frame mutation",
            case,
            mutate(&mut rng, frame),
            drain_frames,
        );
        case += 1;
    }
    // Hostile headers: too many digits, absurd lengths, junk bytes.
    for header in [
        "99999999999999999999\n",
        "999999999\nx",
        "12a\n",
        "\n",
        "-1\n",
        "7\n{}",
    ] {
        no_panic(
            "frame header",
            case,
            header.as_bytes().to_vec(),
            drain_frames,
        );
        case += 1;
    }
    // Hostile payloads: nesting far past the JSON and IR parsers' caps.
    let deep_json = "[".repeat(200_000);
    let deep_program = format!(
        "{{\"op\":\"optimize\",\"program\":\"{}%0{}\"}}",
        "(lam ".repeat(200_000),
        ")".repeat(200_000)
    );
    for payload in [deep_json, deep_program] {
        no_panic("payload nesting", case, payload.into_bytes(), |p| {
            if let Ok(Request::Optimize(req)) = Request::from_payload(&p) {
                let _ = req.program.parse::<Expr>();
            }
        });
        case += 1;
    }
}

/// Parse `text`; when it parses, its display must parse back to the same
/// display (the round trip the wire format relies on).
fn parse_text(text: String) {
    if let Ok(expr) = text.parse::<Expr>() {
        let shown = expr.to_string();
        let again: Expr = shown.parse().expect("a displayed expression re-parses");
        assert_eq!(again.to_string(), shown);
    }
}

/// IR-shaped token soup: brackets, operators, literals and junk.
fn token_soup(rng: &mut Rng) -> String {
    const TOKENS: [&str; 24] = [
        "(", "(", ")", ")", " ", "lam", "app", "get", "build", "ifold", "tuple", "fst", "+", "*",
        "#8", "#0", "%0", "%3", "1.5", "-0", "xs", "nan", "dot", "(dot",
    ];
    (0..rng.below(40))
        .map(|_| TOKENS[rng.below(TOKENS.len())])
        .collect()
}

#[test]
fn expr_parser_never_panics() {
    let texts: Vec<String> = Kernel::ALL.iter().map(|k| k.expr(8).to_string()).collect();
    let mut case = 0;
    for text in &texts {
        parse_text(text.clone());
        for len in 0..text.len() {
            let prefix = String::from_utf8_lossy(&text.as_bytes()[..len]).into_owned();
            no_panic("IR truncation", case, prefix, parse_text);
            case += 1;
        }
    }
    let mut rng = Rng(SEED);
    for _ in 0..RANDOM_CASES {
        let text = &texts[rng.below(texts.len())];
        let input = if rng.below(2) == 0 {
            String::from_utf8_lossy(&mutate(&mut rng, text.as_bytes())).into_owned()
        } else {
            token_soup(&mut rng)
        };
        no_panic("IR mutation", case, input, parse_text);
        case += 1;
    }
    // Nesting far past any real program is an error, not a stack overflow.
    let deep = "(lam ".repeat(200_000) + "%0" + &")".repeat(200_000);
    no_panic("IR nesting", case, deep, parse_text);
}
