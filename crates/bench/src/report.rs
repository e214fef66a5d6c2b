//! Read-merge-write support for the committed `BENCH_*.json` trajectory files.
//!
//! Several benches share one report file (`BENCH_transformer.json` holds both
//! the fit-throughput and the quantized-inference headlines), and each bench
//! must be runnable alone without clobbering the others' sections. So a bench
//! never writes the whole file: it merges its own top-level key into whatever
//! is already on disk, preserving every other key and their insertion order.
//! Every section it writes carries the run's metadata, so no bench can leave
//! it out.

use holistix::corpus::JsonValue;
use std::path::Path;

/// Replace (or append) the top-level `key` of the JSON report at `path` with
/// `section` and write the result back. An object section is stamped with
/// the run's metadata first: `git` (the build's git describe), `cores` (the
/// available parallelism) and `profile` (`release`, or `debug` in a build
/// with debug assertions). A missing or unparsable file is replaced by a
/// fresh single-key object — an earlier run interrupted mid-write must not
/// wedge every later bench.
pub fn merge_section(path: impl AsRef<Path>, key: &str, mut section: JsonValue) {
    if let JsonValue::Object(fields) = &mut section {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        for (name, value) in [
            ("git", JsonValue::string(holistix_serve::build_info().1)),
            ("cores", JsonValue::Number(cores as f64)),
            ("profile", JsonValue::string(profile)),
        ] {
            fields.retain(|(k, _)| k != name);
            fields.push((name.to_string(), value));
        }
    }
    let path = path.as_ref();
    let mut fields: Vec<(String, JsonValue)> = match std::fs::read_to_string(path) {
        Ok(existing) => match JsonValue::parse(&existing) {
            Ok(JsonValue::Object(fields)) => fields,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, value)) => *value = section,
        None => fields.push((key.to_string(), section)),
    }
    let report = JsonValue::Object(fields);
    std::fs::write(path, report.to_string())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "holistix_report_{name}_{}.json",
            std::process::id()
        ))
    }

    #[test]
    fn merge_preserves_other_sections() {
        let path = temp_path("merge");
        let _ = std::fs::remove_file(&path);
        merge_section(
            &path,
            "fit",
            JsonValue::object(vec![("speedup", JsonValue::Number(2.0))]),
        );
        merge_section(
            &path,
            "inference",
            JsonValue::object(vec![("speedup", JsonValue::Number(3.0))]),
        );
        // Overwriting one section leaves the other untouched.
        merge_section(
            &path,
            "fit",
            JsonValue::object(vec![("speedup", JsonValue::Number(2.5))]),
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let fit = report.get("fit").unwrap().get("speedup").unwrap().as_f64();
        let inference = report
            .get("inference")
            .unwrap()
            .get("speedup")
            .unwrap()
            .as_f64();
        assert_eq!(fit, Some(2.5));
        assert_eq!(inference, Some(3.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_stamps_run_metadata_into_each_section() {
        let path = temp_path("metadata");
        let _ = std::fs::remove_file(&path);
        let section = |profile: &str| {
            JsonValue::object(vec![
                ("speedup", JsonValue::Number(2.0)),
                ("profile", JsonValue::string(profile)),
            ])
        };
        merge_section(&path, "fit", section("stale"));
        merge_section(&path, "inference", section("stale"));
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for key in ["fit", "inference"] {
            let written = report.get(key).unwrap();
            assert_eq!(written.get("speedup").unwrap().as_f64(), Some(2.0));
            assert_eq!(
                written.get("git").unwrap().as_str(),
                Some(holistix_serve::build_info().1)
            );
            let cores = written.get("cores").unwrap().as_f64().unwrap();
            assert!(cores >= 1.0, "{key}: {cores} cores");
            // The stamp replaces a stale field instead of duplicating it.
            let profile = if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            };
            assert_eq!(written.get("profile").unwrap().as_str(), Some(profile));
            let JsonValue::Object(fields) = written else {
                panic!("{key} is not an object");
            };
            assert_eq!(fields.iter().filter(|(k, _)| k == "profile").count(), 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_recovers_from_corrupt_file() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{not json").unwrap();
        merge_section(&path, "fit", JsonValue::object(vec![]));
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(report.get("fit").is_some());
        let _ = std::fs::remove_file(&path);
    }
}
