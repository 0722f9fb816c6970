//! Every committed JSON artifact under `results/` (baselines included)
//! parses with `supernova_trace::json`, and writing the parsed tree back
//! out parses to the same tree — same key order, same number text. A
//! producer that emits invalid JSON, or a writer that loses a value,
//! fails here before it reaches `bench_check`.

use std::path::{Path, PathBuf};

use supernova_trace::json::parse;

fn json_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            json_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "json") {
            out.push(path);
        }
    }
}

#[test]
fn committed_artifacts_round_trip_through_the_json_layer() {
    let mut files = Vec::new();
    json_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
        &mut files,
    );
    assert!(
        files
            .iter()
            .any(|f| f.ends_with("baselines/BENCH_fleet.json"))
            && files.iter().any(|f| f.ends_with("numeric_ape.json")),
        "expected the committed artifacts, found {files:?}"
    );
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read artifact");
        let tree = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert_eq!(
            parse(&tree.write()).as_ref(),
            Ok(&tree),
            "{} changes on a write/parse round trip",
            file.display()
        );
    }
}
