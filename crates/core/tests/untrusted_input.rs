//! Robustness of the two on-disk formats a run reads back: the run
//! journal (`journal::{parse_header, parse_record, parse_journal}`) and
//! cell-cache entries (`cache::load_rows`). Both are untrusted input — a
//! torn write, a flipped bit or a hand edit must come back as a miss
//! (`None`, or a shorter record prefix), never a panic.
//!
//! The proptests feed arbitrary bytes, byte-mutated and line-mutated
//! valid files, and mutations whose checksum is recomputed, so the
//! parsers behind the checksum gate (escapes, integer fields, the hex
//! row codec) see the damage too.

use std::fs;
use std::path::PathBuf;

use isol_bench::cache;
use isol_bench::journal::{
    parse_header, parse_journal, parse_record, render_header, render_record, Header, Record,
};
use proptest::prelude::*;
use simcore::fnv1a_64;

/// One edit to a byte string.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Overwrite the byte at this position.
    Set(u64, u8),
    /// Delete the byte at this position.
    Delete(u64),
    /// Insert a byte at this position.
    Insert(u64, u8),
    /// Insert a run of `9`s here: turns a count or length field into a
    /// huge number.
    Digits(u64, u8),
    /// Cut everything from this position on.
    Truncate(u64),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u64..=u64::MAX).prop_map(|r| {
        let (pos, byte) = (r >> 16, (r >> 8) as u8);
        match r % 16 {
            0..=5 => Mutation::Set(pos, byte),
            6..=8 => Mutation::Delete(pos),
            9..=11 => Mutation::Insert(pos, byte),
            12..=14 => Mutation::Digits(pos, byte % 24 + 1),
            _ => Mutation::Truncate(pos),
        }
    })
}

fn apply(bytes: &mut Vec<u8>, m: Mutation) {
    let at = |pos: u64, len: usize| pos as usize % (len + 1);
    match m {
        Mutation::Set(pos, b) if !bytes.is_empty() => {
            let i = pos as usize % bytes.len();
            bytes[i] = b;
        }
        Mutation::Delete(pos) if !bytes.is_empty() => {
            bytes.remove(pos as usize % bytes.len());
        }
        Mutation::Set(..) | Mutation::Delete(_) => {}
        Mutation::Insert(pos, b) => bytes.insert(at(pos, bytes.len()), b),
        Mutation::Digits(pos, n) => {
            let i = at(pos, bytes.len());
            bytes.splice(i..i, std::iter::repeat_n(b'9', usize::from(n)));
        }
        Mutation::Truncate(pos) => bytes.truncate(at(pos, bytes.len())),
    }
}

fn mutated(text: &str, edits: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &m in edits {
        apply(&mut bytes, m);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A journal with a header, completed cells (including empty rows and
/// awkward strings) and a failure record.
fn journal_text(seed: u64) -> String {
    let mut text = render_header(&Header {
        salt: seed,
        fidelity: "smoke".to_owned(),
    });
    for i in 0..3u64 {
        let v = f64::from_bits(seed.rotate_left(i as u32 * 7));
        text.push_str(&render_record(&Record::Cell {
            fp: format!("{:032x}", seed ^ i),
            experiment: "fig4".to_owned(),
            label: format!("cell-\"{i}\"\\µ"),
            outcome: "miss".to_owned(),
            attempts: 1 + i as u32,
            rows: vec![vec![v, -0.0], vec![], vec![f64::INFINITY]],
        }));
    }
    text.push_str(&render_record(&Record::Fail {
        label: "cell-9".to_owned(),
        class: "panic".to_owned(),
        attempts: 2,
        message: "boom\nsecond line \u{1}".to_owned(),
    }));
    text
}

/// Re-seals a record line whose body was edited: a fresh checksum over
/// the (mutated) body, so the parse gets past the checksum gate.
fn resealed(line: &str, edits: &[Mutation]) -> String {
    let body = line.rfind(",\"ck\":\"").map_or(line, |at| &line[..at]);
    let body = mutated(body, edits);
    format!("{body},\"ck\":\"{:016x}\"}}", fnv1a_64(body.as_bytes()))
}

/// Line-level edits: drop, duplicate or swap lines, or splice a line
/// in from another journal.
fn line_mutated(text: &str, other: &str, ops: &[u64]) -> String {
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    let donors: Vec<&str> = other.split_inclusive('\n').collect();
    for &op in ops {
        let n = lines.len();
        let i = (op >> 8) as usize % n.max(1);
        let j = (op >> 32) as usize % n.max(1);
        match op % 4 {
            0 if n > 0 => {
                lines.remove(i);
            }
            1 if n > 0 => lines.insert(j, lines[i]),
            2 if n > 0 => lines.swap(i, j),
            _ => lines.insert(j.min(n), donors[i % donors.len()]),
        }
    }
    lines.concat()
}

/// A fresh cache directory for this test binary.
fn cache_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-untrusted-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

/// A valid cache entry's bytes for `spec`, as `store_rows` writes it.
fn cache_entry(dir: &std::path::Path, spec: &str, seed: u64) -> Vec<u8> {
    let rows = vec![
        vec![f64::from_bits(seed), 1.5],
        vec![],
        vec![f64::NAN, -0.0, f64::NEG_INFINITY],
    ];
    cache::store_rows(dir, spec, &rows).expect("store a valid entry");
    fs::read(cache::entry_path(dir, spec)).expect("entry written")
}

/// Edits an entry's row block (and its `rows` count line) and then
/// rewrites the checksum line to match, so the row decoder sees the
/// damage.
fn resealed_entry(entry: &[u8], edits: &[Mutation]) -> Vec<u8> {
    let text = String::from_utf8_lossy(entry);
    let Some(rows_at) = text.find("\nrows ") else {
        return entry.to_vec();
    };
    let Some(ck_at) = text.find("checksum ") else {
        return entry.to_vec();
    };
    let (head, block) = (&text[..rows_at], &text[rows_at..ck_at]);
    let block = mutated(block, edits);
    // The checksum covers the rows text after the count line.
    let rows_text = block
        .strip_prefix('\n')
        .and_then(|b| b.split_once('\n'))
        .map_or("", |(_, rest)| rest);
    format!(
        "{head}{block}checksum {:016x}\nend\n",
        fnv1a_64(rows_text.as_bytes())
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journal_parsers_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..400),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_header(&text);
        let _ = parse_record(&text);
        let _ = parse_journal(&text);
    }

    #[test]
    fn journal_parsers_survive_mutated_journals(
        seed in 0u64..=u64::MAX,
        edits in proptest::collection::vec(mutation(), 1..6),
        line_ops in proptest::collection::vec(0u64..=u64::MAX, 0..4),
    ) {
        let valid = journal_text(seed);
        let damaged = mutated(&valid, &edits);
        let (_, records) = parse_journal(&damaged);
        prop_assert!(records.len() <= 5);
        for line in damaged.lines() {
            let _ = parse_header(line);
            let _ = parse_record(line);
        }
        let shuffled = line_mutated(&valid, &journal_text(!seed), &line_ops);
        let _ = parse_journal(&shuffled);
        // Past the checksum gate: every field parser sees the damage.
        for line in valid.lines().skip(1) {
            let _ = parse_record(&resealed(line, &edits));
        }
        let _ = parse_header(&mutated(valid.lines().next().unwrap_or(""), &edits));
    }

    #[test]
    fn cache_load_survives_damaged_entries(
        seed in 0u64..=u64::MAX,
        edits in proptest::collection::vec(mutation(), 1..6),
        junk in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let dir = cache_dir("load");
        let spec = format!("spec-{seed:x}");
        let entry = cache_entry(&dir, &spec, seed);
        prop_assert!(cache::load_rows(&dir, &spec).is_some(), "valid entry must load");
        let path = cache::entry_path(&dir, &spec);
        let mut damaged = entry.clone();
        for &m in &edits {
            apply(&mut damaged, m);
        }
        for bytes in [damaged, resealed_entry(&entry, &edits), junk] {
            fs::write(&path, &bytes).expect("rewrite entry");
            let _ = cache::load_rows(&dir, &spec);
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// The row codec pre-sized a row from its declared value count, so a
/// resealed record or entry declaring a huge count asked for an
/// impossible allocation instead of failing the parse.
#[test]
fn huge_declared_row_counts_are_misses() {
    let line = render_record(&Record::Cell {
        fp: "0".repeat(32),
        experiment: "fig4".to_owned(),
        label: "c".to_owned(),
        outcome: "miss".to_owned(),
        attempts: 1,
        rows: vec![vec![1.0]],
    });
    let body = line
        .trim_end()
        .replace("\"rows\":\"1 ", "\"rows\":\"18446744073709551615 ");
    let body = &body[..body.rfind(",\"ck\":\"").unwrap()];
    let resealed = format!("{body},\"ck\":\"{:016x}\"}}", fnv1a_64(body.as_bytes()));
    assert_eq!(parse_record(&resealed), None);

    let dir = cache_dir("huge");
    let entry = cache_entry(&dir, "spec-huge", 7);
    let text = String::from_utf8(entry).unwrap();
    let rows_at = text.find("\nrows ").unwrap();
    let rows_text = "4611686018427387904 3ff0000000000000\n";
    let forged = format!(
        "{}\nrows 1\n{rows_text}checksum {:016x}\nend\n",
        &text[..rows_at],
        fnv1a_64(rows_text.as_bytes())
    );
    fs::write(cache::entry_path(&dir, "spec-huge"), forged).unwrap();
    assert_eq!(cache::load_rows(&dir, "spec-huge"), None);
    fs::remove_dir_all(&dir).ok();
}
