//! The byte-at-a-time encoder and decoder the word-at-a-time ones replaced,
//! kept verbatim as the oracle of the differential tests: [`compress`] must
//! emit exactly the blocks [`reference_compress`] does, and [`decompress`]
//! must accept and reject exactly what [`reference_decompress`] does.
//!
//! [`compress`]: crate::compress
//! [`decompress`]: crate::decompress

use crate::{
    hash4, read_u32_le, HASH_BITS, MAX_EXPANSION, MAX_OFFSET, MIN_COMPRESS_INPUT, MIN_MATCH,
};
use blobseer_types::{BlobError, Result};

fn put_nibble_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!(offset > 0);
    let lit_nibble = literals.len().min(15);
    let match_extra = match_len - MIN_MATCH;
    let match_nibble = match_extra.min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        put_nibble_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if match_nibble == 15 {
        put_nibble_ext(out, match_extra - 15);
    }
}

fn put_trailing_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    let lit_nibble = literals.len().min(15);
    out.push((lit_nibble as u8) << 4);
    if lit_nibble == 15 {
        put_nibble_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

pub(crate) fn reference_compress(input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < MIN_COMPRESS_INPUT {
        return None;
    }
    let mut out = Vec::with_capacity(input.len() / 2);
    // Positions are stored +1 so 0 can mean "empty slot".
    let mut table = vec![0u32; 1 << HASH_BITS];
    let end = input.len();
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= end {
        let h = hash4(read_u32_le(input, i));
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        if candidate > 0 {
            let cand = candidate - 1;
            if i - cand <= MAX_OFFSET && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH] {
                let mut match_len = MIN_MATCH;
                while i + match_len < end && input[cand + match_len] == input[i + match_len] {
                    match_len += 1;
                }
                put_sequence(&mut out, &input[anchor..i], (i - cand) as u16, match_len);
                if out.len() >= input.len() {
                    return None; // compression is losing; bail early
                }
                i += match_len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    put_trailing_literals(&mut out, &input[anchor..end]);
    (out.len() < input.len()).then_some(out)
}

fn truncated() -> BlobError {
    BlobError::Transport("codec: truncated compressed block".into())
}

fn get_nibble_ext(input: &[u8], pos: &mut usize) -> Result<usize> {
    let mut extra = 0usize;
    loop {
        let byte = *input.get(*pos).ok_or_else(truncated)?;
        *pos += 1;
        extra += byte as usize;
        if byte < 255 {
            return Ok(extra);
        }
    }
}

pub(crate) fn reference_decompress(input: &[u8], logical_len: usize) -> Result<Vec<u8>> {
    if logical_len > input.len().saturating_mul(MAX_EXPANSION) {
        return Err(BlobError::Transport(format!(
            "codec: a {}-byte block cannot decode to the declared {logical_len} bytes",
            input.len()
        )));
    }
    let mut out = Vec::with_capacity(logical_len);
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let mut literal_len = (token >> 4) as usize;
        if literal_len == 15 {
            literal_len += get_nibble_ext(input, &mut pos)?;
        }
        if input.len() - pos < literal_len {
            return Err(truncated());
        }
        out.extend_from_slice(&input[pos..pos + literal_len]);
        pos += literal_len;
        if out.len() > logical_len {
            return Err(BlobError::Transport(format!(
                "codec: block decodes past its {logical_len}-byte logical length"
            )));
        }
        if pos == input.len() {
            break; // trailing-literal sequence: no match follows
        }
        if input.len() - pos < 2 {
            return Err(truncated());
        }
        let offset = u16::from_le_bytes(input[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(BlobError::Transport(format!(
                "codec: match offset {offset} reaches before the block start"
            )));
        }
        let mut match_len = (token & 0x0f) as usize + MIN_MATCH;
        if token & 0x0f == 15 {
            match_len += get_nibble_ext(input, &mut pos)?;
        }
        if logical_len - out.len() < match_len {
            return Err(BlobError::Transport(format!(
                "codec: block decodes past its {logical_len}-byte logical length"
            )));
        }
        // Byte-by-byte so a match may overlap its own output (runs).
        let start = out.len() - offset;
        for k in 0..match_len {
            let byte = out[start + k];
            out.push(byte);
        }
    }
    if out.len() != logical_len {
        return Err(BlobError::Transport(format!(
            "codec: block decoded to {} bytes, envelope declared {logical_len}",
            out.len()
        )));
    }
    Ok(out)
}
