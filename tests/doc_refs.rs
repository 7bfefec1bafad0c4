//! The prose docs name source files and items in code spans
//! (`` `crates/core/src/segment.rs` ``, `` `tests/crash_sweep.rs::name` ``).
//! This test reads DESIGN.md, README.md, EXPERIMENTS.md and
//! benchmark/README.md (it changes nothing) and checks that every such
//! reference still resolves, so a deleted or moved file or item cannot
//! leave a dangling reference behind:
//!
//! * a `*.rs` path exists, relative to the repo root or to the doc's own
//!   directory; a bare file name matches at least one file in the tree;
//! * `path.rs::name` names a `fn`, `struct`, `enum`, `const`, `type`,
//!   `trait` or `mod` declared in that file.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
];

/// Directories that hold build output, not sources.
const SKIP_DIRS: [&str; 4] = ["target", "out", ".git", ".claude"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if !SKIP_DIRS.iter().any(|s| name == *s) {
                rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The inline code spans of a markdown document, fenced blocks excluded.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.trim().to_string())
        .collect()
}

/// Splits `path.rs::name` (or `path.rs::{a, b}`) into the path and the
/// names; `None` when the span is not a reference to a `.rs` file.
fn parse_ref(span: &str) -> Option<(String, Vec<String>)> {
    let end = span.find(".rs")? + 3;
    let (path, rest) = span.split_at(end);
    if path.contains(char::is_whitespace) || path.contains('*') {
        return None;
    }
    if !rest.is_empty() && !rest.starts_with("::") {
        return None;
    }
    let names = rest
        .trim_start_matches("::")
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .map(|n| n.trim().to_string())
        .filter(|n| !n.is_empty())
        .collect();
    Some((path.to_string(), names))
}

/// Whether `src` declares an item called `name`.
fn declares(src: &str, name: &str) -> bool {
    const KINDS: [&str; 7] = ["fn", "struct", "enum", "const", "type", "trait", "mod"];
    src.lines().any(|line| {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        words
            .windows(2)
            .any(|w| w[1] == name && KINDS.contains(&w[0]))
    })
}

#[test]
fn doc_references_resolve() {
    let root = root();
    let mut files = Vec::new();
    rs_files(&root, &mut files);
    let mut dangling = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let doc_path = root.join(doc);
        let text = fs::read_to_string(&doc_path).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        let doc_dir = doc_path.parent().unwrap();
        for span in code_spans(&text) {
            let Some((path, names)) = parse_ref(&span) else {
                continue;
            };
            checked += 1;
            let found = if path.contains('/') {
                [root.join(&path), doc_dir.join(&path)]
                    .into_iter()
                    .find(|p| p.is_file())
            } else {
                files
                    .iter()
                    .find(|f| f.file_name().is_some_and(|n| n == path.as_str()))
                    .cloned()
            };
            let Some(file) = found else {
                dangling.push(format!("{doc}: `{span}`: no such file"));
                continue;
            };
            if names.is_empty() {
                continue;
            }
            // A bare file name may match several files; any one declaring
            // the item resolves the reference.
            let candidates: Vec<&PathBuf> = if path.contains('/') {
                vec![&file]
            } else {
                files
                    .iter()
                    .filter(|f| f.file_name().is_some_and(|n| n == path.as_str()))
                    .collect()
            };
            let sources: Vec<String> = candidates
                .iter()
                .map(|f| fs::read_to_string(f).unwrap())
                .collect();
            for name in names {
                if !sources.iter().any(|src| declares(src, &name)) {
                    dangling.push(format!("{doc}: `{span}`: `{path}` declares no `{name}`"));
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no `.rs` references found; the parser is broken"
    );
    assert!(
        dangling.is_empty(),
        "dangling doc references:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn parser_reads_paths_and_items() {
    assert_eq!(
        parse_ref("tests/crash_sweep.rs::flushlog_sweep"),
        Some((
            "tests/crash_sweep.rs".to_string(),
            vec!["flushlog_sweep".to_string()]
        ))
    );
    assert_eq!(
        parse_ref("segment.rs::{is_noop, kept_count}").unwrap().1,
        ["is_noop", "kept_count"]
    );
    assert_eq!(parse_ref("examples/*.rs"), None);
    assert_eq!(parse_ref("cargo test --test crash_sweep"), None);
    assert!(declares(
        "    pub(crate) fn kept_count(&self)",
        "kept_count"
    ));
    assert!(!declares("    let kept_count = 3;", "kept_count"));
    assert_eq!(code_spans("a `x.rs` b\n```\n`y.rs`\n```\n"), ["x.rs"]);
}
