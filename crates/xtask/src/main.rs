//! Repository automation tasks (the `cargo xtask` pattern, std-only).
//!
//! ```text
//! cargo run -p xtask -- api            # regenerate api.txt
//! cargo run -p xtask -- api --check    # fail if api.txt is stale
//! ```
//!
//! The `api` task extracts every `pub` item declaration from the library
//! crates into a committed snapshot (`api.txt`). CI runs the `--check`
//! form, so any change to the public surface shows up as an explicit diff
//! in review — an API redesign has to update the snapshot in the same PR,
//! and accidental drift fails the build.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees form the public surface. `senn-bench` and
/// `xtask` itself are internal harnesses and excluded on purpose.
const SCANNED: &[&str] = &[
    "src",
    "crates/cache/src",
    "crates/core/src",
    "crates/geom/src",
    "crates/mobility/src",
    "crates/network/src",
    "crates/par/src",
    "crates/rtree/src",
    "crates/server/src",
    "crates/sim/src",
];

const SNAPSHOT: &str = "api.txt";

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the repo root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively, path-sorted for determinism.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Does this trimmed line start a public item declaration?
fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.strip_prefix("pub ") else {
        // `pub(crate)` and narrower scopes are not public API.
        return false;
    };
    let rest = rest
        .trim_start_matches("unsafe ")
        .trim_start_matches("async ")
        .trim_start_matches("const ");
    [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ", "mod ", "use ",
    ]
    .iter()
    .any(|kw| rest.starts_with(kw))
        || line.starts_with("pub const ")
        || is_pub_field(line)
}

/// Struct fields (`pub name: Type,`) are public surface too.
fn is_pub_field(line: &str) -> bool {
    let Some(rest) = line.strip_prefix("pub ") else {
        return false;
    };
    rest.split_once(':')
        .is_some_and(|(name, _)| !name.contains('(') && !name.contains(' '))
}

/// Is the accumulated declaration text complete enough to emit?
fn declaration_complete(acc: &str) -> bool {
    if acc.contains('{') {
        return true;
    }
    let opens = acc.matches('(').count();
    let closes = acc.matches(')').count();
    if opens != closes {
        return false;
    }
    acc.ends_with(';') || acc.ends_with(',') || acc.ends_with('>') || opens > 0
}

/// Normalizes one declaration: whitespace collapsed, body cut at `{`,
/// trailing separators dropped.
fn normalize(acc: &str) -> String {
    let cut = acc.split('{').next().unwrap_or(acc);
    let collapsed: String = cut.split_whitespace().collect::<Vec<_>>().join(" ");
    collapsed
        .trim_end_matches([',', ';'])
        .trim_end()
        .to_string()
}

/// Extracts the public declarations of one source file, in source order.
fn extract_file(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut items = Vec::new();
    let mut acc: Option<String> = None;
    for raw in text.lines() {
        let line = raw.trim();
        // Unit-test modules sit at the end of each file by repo
        // convention; everything below them is not public surface. (Not
        // the `#[cfg(test)]` above them: a test-only field carries one too.)
        if line.starts_with("mod tests") {
            break;
        }
        if let Some(partial) = acc.as_mut() {
            partial.push(' ');
            partial.push_str(line);
            if declaration_complete(partial) || partial.len() > 2000 {
                items.push(normalize(partial));
                acc = None;
            }
            continue;
        }
        if is_pub_item(line) {
            if declaration_complete(line) {
                items.push(normalize(line));
            } else {
                acc = Some(line.to_string());
            }
        }
    }
    if let Some(partial) = acc {
        items.push(normalize(&partial));
    }
    items
}

fn generate(root: &Path) -> String {
    let mut out = String::new();
    out.push_str("# Public API surface. Regenerate with: cargo run -p xtask -- api\n");
    out.push_str("# CI fails when this file does not match the source tree.\n");
    for dir in SCANNED {
        for file in rust_files(&root.join(dir)) {
            let items = extract_file(&file);
            if items.is_empty() {
                continue;
            }
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string()
                .replace('\\', "/");
            let _ = writeln!(out, "\n## {rel}");
            for item in items {
                let _ = writeln!(out, "{item}");
            }
        }
    }
    out
}

fn task_api(check: bool) {
    let root = repo_root();
    let fresh = generate(&root);
    let snapshot_path = root.join(SNAPSHOT);
    if check {
        let committed = std::fs::read_to_string(&snapshot_path).unwrap_or_default();
        if committed == fresh {
            eprintln!("api: {SNAPSHOT} is up to date");
            return;
        }
        let committed_lines: std::collections::BTreeSet<&str> = committed.lines().collect();
        let fresh_lines: std::collections::BTreeSet<&str> = fresh.lines().collect();
        eprintln!("api: {SNAPSHOT} is stale — public surface changed:");
        for gone in committed_lines.difference(&fresh_lines).take(40) {
            eprintln!("  - {gone}");
        }
        for new in fresh_lines.difference(&committed_lines).take(40) {
            eprintln!("  + {new}");
        }
        eprintln!("api: run `cargo run -p xtask -- api` and commit the result");
        std::process::exit(1);
    }
    std::fs::write(&snapshot_path, fresh).expect("write api snapshot");
    eprintln!("api: wrote {}", snapshot_path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("api") => task_api(args.iter().any(|a| a == "--check")),
        _ => {
            eprintln!("usage: cargo run -p xtask -- api [--check]");
            std::process::exit(2);
        }
    }
}
