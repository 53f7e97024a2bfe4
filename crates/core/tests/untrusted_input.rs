//! Robustness of the one on-disk format a run reads back: cell-cache
//! entries (`cache::load_rows`). They are untrusted input — a torn
//! write, a flipped bit or a hand edit must come back as a miss
//! (`None`), never a panic.
//!
//! The proptests feed arbitrary bytes, byte-mutated valid entries, and
//! mutations whose checksum is recomputed, so the parsers behind the
//! checksum gate (integer fields, the hex row codec) see the damage too.

use std::fs;
use std::path::PathBuf;

use isol_bench::cache;
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
/// resealed entry declaring a huge count asked for an impossible
/// allocation instead of failing the parse.
#[test]
fn huge_declared_row_counts_are_misses() {
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
