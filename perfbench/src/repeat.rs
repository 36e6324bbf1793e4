//! The exact-repeat self-check: verdicts and state/transition counts must be
//! identical between passes of one run, between the untraced and the traced
//! pass, and between runs with the same seed.
//!
//! Runs leave their records in `perfbench/out/repeat-<workload>.txt`, keyed by
//! a hash of the benchmark executable, so a later run of the same build
//! compares its records with every earlier one.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

pub type Records = Vec<(String, String)>;

/// The first key whose value differs between `a` and `b` (keys missing on
/// either side are not compared).
pub fn first_difference(a: &Records, b: &Records) -> Option<String> {
    let b: BTreeMap<&str, &str> = b.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    a.iter().find_map(|(k, v)| match b.get(k.as_str()) {
        Some(w) if *w != v => Some(format!("{k}: `{v}` vs `{w}`")),
        _ => None,
    })
}

pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn executable_fingerprint() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Compares `records` with those of earlier runs of this build, then adds
/// them to the log.  Returns the first difference.
pub fn check_across_runs(workload: &str, records: &Records) -> Result<(), String> {
    let path = out_dir().join(format!("repeat-{workload}.txt"));
    let fingerprint = executable_fingerprint();
    let mut known: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(fingerprint.as_str()) {
            for line in lines {
                if let Some((k, v)) = line.split_once('\t') {
                    known.insert(k.to_string(), v.to_string());
                }
            }
        }
    }
    for (k, v) in records {
        if let Some(old) = known.get(k) {
            if old != v {
                return Err(format!(
                    "{k}: `{v}` differs from an earlier run of this build: `{old}`"
                ));
            }
        }
    }
    for (k, v) in records {
        known.insert(k.clone(), v.clone());
    }
    let mut text = fingerprint;
    text.push('\n');
    for (k, v) in &known {
        text.push_str(&format!("{k}\t{v}\n"));
    }
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    Ok(())
}
