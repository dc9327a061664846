//! Tuning-result persistence: a line-oriented text file so warm tenants
//! survive restarts.
//!
//! Format (one entry per line, space-separated, `#` comments allowed):
//!
//! ```text
//! kfuse-tune v3
//! entry <fingerprint:hex> <size_class> <schedule> <strip_rows|auto> <separable:0|1> <median_us>
//! ```
//!
//! Example:
//!
//! ```text
//! kfuse-tune v3
//! entry 9e3779b97f4a7c15 20 optimized auto 0 1234.5
//! ```
//!
//! Loading is best-effort by design: a missing file, another version
//! (`v2` files carried a tile width and height), or a malformed line yields no
//! entries (or skips the line) rather than failing startup — persisted
//! tunings are a warm-start hint, and every loaded choice is still
//! re-validated against the bit-identity oracle before it is trusted (see
//! the runtime's retuner).

use crate::autotune::{
    schedule_from_tag, schedule_tag, strip_from_tag, strip_tag, Choice, TuneKey,
};
use std::path::Path;

/// Version line that must open a valid persistence file.
pub const HEADER: &str = "kfuse-tune v3";

/// One persisted tuning decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunedEntry {
    /// What was tuned.
    pub key: TuneKey,
    /// The winning configuration.
    pub choice: Choice,
    /// The winner's measured median at tuning time, in microseconds
    /// (diagnostic only — never compared across hosts).
    pub median_us: f64,
}

/// Serializes entries to the text format (deterministic order as given).
pub fn to_text(entries: &[TunedEntry]) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for e in entries {
        out.push_str(&format!(
            "entry {:016x} {} {} {} {} {:.1}\n",
            e.key.fingerprint,
            e.key.size_class,
            schedule_tag(e.choice.schedule),
            strip_tag(e.choice.strip_rows),
            u8::from(e.choice.separable),
            e.median_us,
        ));
    }
    out
}

fn parse_line(line: &str) -> Option<TunedEntry> {
    let mut it = line.split_ascii_whitespace();
    if it.next()? != "entry" {
        return None;
    }
    let fingerprint = u64::from_str_radix(it.next()?, 16).ok()?;
    let size_class: u8 = it.next()?.parse().ok()?;
    let schedule = schedule_from_tag(it.next()?)?;
    let strip_rows = strip_from_tag(it.next()?)?;
    let separable = match it.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let median_us: f64 = it.next()?.parse().ok()?;
    if it.next().is_some() || !median_us.is_finite() {
        return None;
    }
    Some(TunedEntry {
        key: TuneKey {
            fingerprint,
            size_class,
        },
        choice: Choice {
            schedule,
            separable,
            strip_rows,
        },
        median_us,
    })
}

/// Parses the text format. Returns no entries unless the version header
/// matches; malformed or comment lines are skipped.
pub fn from_text(text: &str) -> Vec<TunedEntry> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Vec::new();
    }
    lines
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .filter_map(parse_line)
        .collect()
}

/// Writes entries to `path` (atomically: temp file + rename, so a crash
/// mid-write never leaves a truncated file for the next startup).
pub fn save(path: &Path, entries: &[TunedEntry]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, to_text(entries))?;
    std::fs::rename(&tmp, path)
}

/// Loads entries from `path`; missing or unreadable files yield none.
pub fn load(path: &Path) -> Vec<TunedEntry> {
    std::fs::read_to_string(path)
        .map(|t| from_text(&t))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_dsl::Schedule;

    fn entry(fp: u64, sc: u8) -> TunedEntry {
        entry_with(fp, sc, Some(32))
    }

    fn entry_with(fp: u64, sc: u8, strip_rows: Option<usize>) -> TunedEntry {
        TunedEntry {
            key: TuneKey {
                fingerprint: fp,
                size_class: sc,
            },
            choice: Choice {
                schedule: Schedule::Basic,
                separable: true,
                strip_rows,
            },
            median_us: 321.5,
        }
    }

    #[test]
    fn round_trips_through_text() {
        let entries = vec![entry(0xdead_beef, 12), entry_with(u64::MAX, 63, None)];
        let text = to_text(&entries);
        assert_eq!(
            text,
            "kfuse-tune v3\nentry 00000000deadbeef 12 basic 32 1 321.5\n\
             entry ffffffffffffffff 63 basic auto 1 321.5\n"
        );
        assert_eq!(from_text(&text), entries);
        // A line naming a retired schedule tag is skipped; its neighbours
        // on either side still load.
        let first = "entry 00000000deadbeef 12 basic 32 1 321.5\n";
        let retired = "entry 00000000deadbeef 13 overlapped 32 1 321.5\n";
        let with_retired = text.replace(first, &format!("{first}{retired}"));
        assert_ne!(with_retired, text);
        assert_eq!(from_text(&with_retired), entries);
    }

    #[test]
    fn wrong_header_yields_nothing() {
        let text = to_text(&[entry(1, 1)]).replace(HEADER, "kfuse-tune v999");
        assert!(from_text(&text).is_empty());
        // Files the previous formats wrote: a warm-start miss, not an error.
        let v1 = "kfuse-tune v1\nentry 000000000000002a 7 basic 64 32 sse2 1 321.5\n";
        assert!(from_text(v1).is_empty());
        let v2 = "kfuse-tune v2\nentry 000000000000002a 7 basic 64 32 1 321.5\n";
        assert!(from_text(v2).is_empty());
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let good = entry(42, 7);
        let text = format!(
            "{HEADER}\n# a comment\n\nentry zzzz 1 optimized 1 0 1\nentry 2a 7 basic 32 1 321.5\nentry 2a 7 warp 32 1 1\n\
             entry 2a 7 basic 0 1 321.5\nentry 2a 7 basic 64 32 1 321.5\n"
        );
        // Skipped: a bad fingerprint, an unknown schedule, a zero strip
        // height, and a v2-shaped line (tile width and height) under the
        // v3 header.
        let parsed = from_text(&text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].key, good.key);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("kfuse-tune-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuned.txt");
        let entries = vec![entry(7, 9)];
        save(&path, &entries).unwrap();
        assert_eq!(load(&path), entries);
        assert!(load(&dir.join("missing.txt")).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
