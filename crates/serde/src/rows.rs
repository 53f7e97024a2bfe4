//! Exact, line-oriented serialization of numeric result rows.
//!
//! The cell cache stores each grid cell's result as a `Vec<Vec<f64>>`.
//! Round-tripping those through decimal text would lose bits (and a
//! cached run must be *byte-identical* to a cold run), so values are
//! written as the hex rendering of [`f64::to_bits`] — exact for every
//! float including infinities, NaN payloads, and signed zeros. One line
//! per row, values space-separated, each prefixed with the row's value
//! count so truncation is detectable:
//!
//! ```text
//! 2 3ff0000000000000 7ff0000000000000
//! 1 4008000000000000
//! ```
//!
//! Decoding is strict: any malformed line yields `None`, which cache
//! readers treat as a miss (never a panic).

/// Encodes `rows` into the line-oriented hex-bits format.
#[must_use]
pub fn encode_rows(rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.len().to_string());
        for v in row {
            out.push(' ');
            out.push_str(&format!("{:016x}", v.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// Decodes text produced by [`encode_rows`]; `None` on any anomaly
/// (bad count, short row, non-hex token, trailing garbage).
#[must_use]
pub fn decode_rows(text: &str) -> Option<Vec<Vec<f64>>> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut parts = line.split(' ');
        let count: usize = parts.next()?.parse().ok()?;
        // Each value takes 17 bytes (space + 16 hex digits), so the line
        // bounds the allocation whatever count it declares.
        let mut row = Vec::with_capacity(count.min(line.len() / 17));
        for _ in 0..count {
            let tok = parts.next()?;
            if tok.len() != 16 {
                return None;
            }
            let bits = u64::from_str_radix(tok, 16).ok()?;
            row.push(f64::from_bits(bits));
        }
        if parts.next().is_some() {
            return None;
        }
        rows.push(row);
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exactly() {
        let rows = vec![
            vec![1.0, -0.0, f64::INFINITY, f64::NEG_INFINITY],
            vec![],
            vec![0.1 + 0.2, 1e-308, 9_007_199_254_740_993.0_f64],
        ];
        let text = encode_rows(&rows);
        let back = decode_rows(&text).expect("decodes");
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact round trip");
            }
        }
    }

    #[test]
    fn nan_payload_survives() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = decode_rows(&encode_rows(&[vec![weird]])).unwrap();
        assert_eq!(back[0][0].to_bits(), weird.to_bits());
    }

    #[test]
    fn empty_input_is_empty_rows() {
        assert_eq!(decode_rows("").unwrap(), Vec::<Vec<f64>>::new());
    }

    #[test]
    fn malformed_inputs_fail_closed() {
        for bad in [
            "x 3ff0000000000000",                    // non-numeric count
            "2 3ff0000000000000",                    // short row
            "18446744073709551615 3ff0000000000000", // count beyond the line
            "1 3ff0000000000000 deadbeef",           // trailing garbage
            "1 zzzz000000000000",                    // non-hex token
            "1 3ff000000000000",                     // 15-digit token
            "1 3ff00000000000000",                   // 17-digit token
            "18446744073709551616 deadbeef",         // count overflows usize path
        ] {
            assert!(decode_rows(bad).is_none(), "accepted malformed: {bad:?}");
        }
    }
}
