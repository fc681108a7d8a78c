//! The `sslic` binary ends a bad numeric flag in a typed error — exit
//! code 1 and a one-line `error:` that names the flag and its value —
//! never in a panic.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use sslic::image::ppm;
use sslic::image::synthetic::SyntheticImage;

/// Runs `sslic args` with an empty stdin and checks the typed failure:
/// exit code 1, stderr starting `error:` and naming `bad` (compared
/// case-insensitively, so `nan` matches `NaN`), and no panic.
fn assert_rejected(args: &[&str], bad: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sslic"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the sslic binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(
        stderr.to_lowercase().contains(&bad.to_lowercase()),
        "{args:?} must name `{bad}`: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The flag values `segment` and `serve` share that the engine cannot run.
const BAD_ENGINE_FLAGS: [(&str, &str); 6] = [
    ("--subsets", "0"),
    ("--superpixels", "0"),
    ("--iterations", "0"),
    ("--compactness", "-1"),
    ("--compactness", "nan"),
    ("--threads", "0"),
];

#[test]
fn segment_rejects_bad_engine_flags() {
    // A real input, so the error can only come from the flag check.
    let input = scratch("cli_errors_input.ppm");
    let img = SyntheticImage::builder(32, 24).seed(1).regions(3).build();
    ppm::write_ppm(
        BufWriter::new(File::create(&input).expect("create input")),
        &img.rgb,
    )
    .expect("write input");
    let input = input.to_str().expect("UTF-8 path");
    for (flag, value) in BAD_ENGINE_FLAGS {
        assert_rejected(&["segment", input, flag, value], &format!("{flag} {value}"));
    }
}

#[test]
fn serve_rejects_bad_engine_flags() {
    for (flag, value) in BAD_ENGINE_FLAGS {
        assert_rejected(&["serve", flag, value], &format!("{flag} {value}"));
    }
}

#[test]
fn hwsim_rejects_bad_model_flags() {
    for (flag, value) in [
        ("--superpixels", "0"),
        ("--buffer-kb", "0"),
        ("--clock-ghz", "0"),
    ] {
        assert_rejected(&["hwsim", flag, value], &format!("{flag} {value}"));
    }
}

#[test]
fn dataset_rejects_zero_width() {
    let dir = scratch("cli_errors_dataset");
    let dir = dir.to_str().expect("UTF-8 path");
    assert_rejected(&["dataset", dir, "--width", "0"], "--width 0");
}
