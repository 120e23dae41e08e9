//! Golden outputs of the plain wormhole engine, recorded from the
//! commit before its packets moved from an append-only arena indexed by
//! `PacketId` into recycled slots: each
//! `tests/fixtures/plain_golden/NAME.args` is a `turnroute` command line
//! whose stdout must equal `NAME.out` byte for byte, and whose
//! `--trace` file (if it writes one) must equal `NAME.trace.json` — the
//! trace is what pins "packet ids are creation order, not slot
//! numbers". `scripts/check.sh` runs the same `cmp`s. Re-record only
//! for a deliberate semantic change, from the commit before it.

use std::path::Path;
use std::process::Command;

/// Where the trace fixture's `.args` asks for its trace file.
const TRACE_ARG: &str = "target/plain_golden.trace.json";

#[test]
fn plain_engine_reproduces_its_golden_outputs() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/plain_golden");
    let trace_out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("plain_golden.trace.json");
    let (mut checked, mut traces) = (0, 0);
    for entry in std::fs::read_dir(&dir).expect("fixture directory") {
        let args_file = entry.expect("directory entry").path();
        if args_file.extension().is_none_or(|e| e != "args") {
            continue;
        }
        let args = std::fs::read_to_string(&args_file).expect("args file");
        let out = Command::new(env!("CARGO_BIN_EXE_turnroute"))
            .args(args.split_whitespace().map(|a| match a {
                TRACE_ARG => trace_out.as_os_str(),
                other => other.as_ref(),
            }))
            .output()
            .expect("spawn turnroute");
        assert!(out.status.success(), "{}", args_file.display());
        let golden = std::fs::read(args_file.with_extension("out")).expect("golden stdout");
        assert!(out.stdout == golden, "{} drifted", args_file.display());
        checked += 1;
        if let Ok(golden) = std::fs::read(args_file.with_extension("trace.json")) {
            let trace = std::fs::read(&trace_out).expect("trace written");
            assert!(trace == golden, "{} trace drifted", args_file.display());
            traces += 1;
        }
    }
    assert_eq!((checked, traces), (4, 1));
}
