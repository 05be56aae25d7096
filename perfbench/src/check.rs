//! Reference outputs stored with the benchmark, and the comparison of
//! every operation's output against them.
//!
//! `ref/<workload>.json` maps an operation key to its expected output:
//! the serialized report for the serving, fleet and planner workloads,
//! and an FNV-1a digest of the serialized output for the characterization
//! sweep, whose 2,000-odd reports would otherwise make a large file.
//! `--write-ref` regenerates a file from the current program.

use std::collections::BTreeMap;

use serde::Serialize;

/// The stored references of one workload.
pub struct Reference {
    entries: BTreeMap<String, String>,
}

/// How an output is stored in the reference file.
#[derive(Clone, Copy)]
pub enum Stored {
    /// The serialized output itself.
    Full,
    /// Its FNV-1a digest.
    Digest,
}

/// FNV-1a over bytes, printed as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The stored form of an output.
pub fn stored<T: Serialize>(value: &T, how: Stored) -> String {
    let json = serde_json::to_string(value).expect("outputs serialize");
    match how {
        Stored::Full => json,
        Stored::Digest => fnv_hex(json.as_bytes()),
    }
}

fn embedded(workload: &str) -> Option<&'static str> {
    match workload {
        "characterize" => Some(include_str!("../ref/characterize.json")),
        "serve_kv" => Some(include_str!("../ref/serve_kv.json")),
        "fleet_autoscale" => Some(include_str!("../ref/fleet_autoscale.json")),
        "plan_grid" => Some(include_str!("../ref/plan_grid.json")),
        _ => None,
    }
}

impl Reference {
    /// The references built into the binary for `workload`.
    pub fn load(workload: &str) -> Result<Self, String> {
        let text = embedded(workload).ok_or_else(|| format!("no references for {workload}"))?;
        let entries: BTreeMap<String, String> =
            serde_json::from_str(text).map_err(|e| format!("ref/{workload}.json: {e:?}"))?;
        Ok(Reference { entries })
    }

    /// An empty reference set, filled by [`Reference::record`].
    pub fn empty() -> Self {
        Reference {
            entries: BTreeMap::new(),
        }
    }

    /// Whether `actual` matches the stored output for `key`. A key with no
    /// stored output is a mismatch.
    pub fn matches(&self, key: &str, actual: &str) -> bool {
        self.entries.get(key).is_some_and(|want| want == actual)
    }

    pub fn record(&mut self, key: String, actual: String) {
        self.entries.insert(key, actual);
    }

    /// The reference file's contents, one entry per line.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| {
                format!(
                    "  {}: {}",
                    serde_json::to_string(k).expect("keys serialize"),
                    serde_json::to_string(v).expect("values serialize")
                )
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}
