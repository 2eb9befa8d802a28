//! Output digests and the pinned golden tables they are checked
//! against.
//!
//! Golden files live in `golden/` next to this crate's manifest, one
//! line per point (`<label> <hex digest>...`) or per service job key
//! (`<key address> <payload digest>`); `#` starts a comment. They are
//! compiled in, and regenerated only by `--write-goldens`, which runs
//! every point under the per-cycle reference kernel.

use std::collections::BTreeMap;

use bench::json::Value;
use occamy_sim::{Machine, MachineStats};
use occamyd::protocol::fnv1a;

/// Pinned digests of the Fig. 10 population (timing mode), one line
/// per point: `<label> <stats digest> <memory digest> <register digest>`.
pub const FIG10: &str = include_str!("../golden/fig10.txt");
/// Pinned digests of the DRAM chase, same layout as [`FIG10`].
pub const DRAM_CHASE: &str = include_str!("../golden/dram-chase.txt");
/// Pinned result-payload digests of every `occamyd-mixed` job key:
/// `<key address> <payload digest>`.
pub const OCCAMYD: &str = include_str!("../golden/occamyd.txt");

/// Digest of a JSON document's compact rendering.
pub fn json_digest(v: &Value) -> u64 {
    fnv1a(v.render_compact().as_bytes())
}

/// Digest of a run's statistics document (the same document the
/// experiment binaries and `occamyd` emit).
pub fn stats_digest(stats: &MachineStats) -> u64 {
    json_digest(&bench::stats_to_json(stats))
}

/// Digest of a machine's final memory: every allocated word.
pub fn memory_digest(m: &Machine) -> u64 {
    let mem = m.memory();
    let words = (0..mem.allocated() / 4).map(|w| u64::from(mem.read_u32(w * 4)));
    fold_words(words)
}

/// Digest of every core's final scalar registers.
pub fn register_digest(m: &Machine) -> u64 {
    fold_words((0..m.config().cores).flat_map(|c| m.xregs(c).iter().copied()))
}

/// FNV-1a over 64-bit words.
fn fold_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A parsed golden table: label → digests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Goldens(BTreeMap<String, Vec<u64>>);

impl Goldens {
    /// Parses a golden file.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let label = fields.next().unwrap_or_default().to_owned();
            let digests = fields
                .map(|f| u64::from_str_radix(f, 16))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("golden line {}: {e}", n + 1))?;
            if digests.is_empty() || map.insert(label.clone(), digests).is_some() {
                return Err(format!(
                    "golden line {}: `{label}` is empty or repeated",
                    n + 1
                ));
            }
        }
        Ok(Goldens(map))
    }

    /// The digests pinned for `label`.
    pub fn get(&self, label: &str) -> Option<&[u64]> {
        self.0.get(label).map(Vec::as_slice)
    }

    /// Number of pinned labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Renders a golden file: a header comment, then one sorted line per
/// label.
pub fn render(header: &str, rows: &BTreeMap<String, Vec<u64>>) -> String {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for (label, digests) in rows {
        out.push_str(label);
        for d in digests {
            out.push_str(&format!(" {d:016x}"));
        }
        out.push('\n');
    }
    out
}
