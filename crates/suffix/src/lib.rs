//! Compressed suffix array substrate for the ALAE reproduction.
//!
//! Section 5 of the paper simulates suffix-trie traversals over the text `T`
//! with a compressed suffix array: a Burrows–Wheeler transform, rank
//! (occurrence) structures supporting backward search, and a sampled suffix
//! array for locating occurrences.  Because ALAE extends text substrings to
//! the *right* one character at a time (appending `c` behind `X`), the index
//! is built over the **reversed** text `T⁻¹`, so that appending a character on
//! the right of `X` becomes a backward-search extension on `(X)⁻¹` — exactly
//! the construction described in Section 5.
//!
//! The crate provides, from scratch (no external succinct-structure crates):
//!
//! * [`sais`] — linear-time suffix array construction (SA-IS),
//! * [`bwt`] — Burrows–Wheeler transform and its inversion,
//! * [`rank`] — byte-sequence rank structure (sampled occurrence counts),
//! * [`simd`] — the in-block scan kernels behind [`rank`]: portable SWAR
//!   for every layout, plus SSE2 for packed DNA on x86-64,
//! * [`fm_index`] — FM-index with backward search and a sampled suffix array,
//! * [`trie`] — the suffix-trie emulation used by BWT-SW and ALAE
//!   ([`trie::SuffixTrieCursor`] extends a represented substring one
//!   character to the right).
//!
//! # Scan kernels
//!
//! The hot in-block scans run one kernel per storage shape, chosen by the
//! platform alone: SWAR (`u64` bit counting) for every shape, plus an SSE2
//! step for the 2-bit packed DNA layout that x86-64 builds select at
//! compile time.  There is no runtime detection and no knob to set.
//!
//! `unsafe` is confined to the [`simd`] module (CI enforces this); the rest
//! of the crate is `#![deny(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod bitvec;
pub mod bwt;
pub mod fm_index;
pub mod options;
pub mod rank;
pub mod sais;
pub mod simd;
pub mod trie;

pub use fm_index::{FmIndex, SaRange, MAX_CODE_COUNT};
pub use options::IndexOptions;
pub use sais::suffix_array_build_count;

pub use rank::{
    thread_scan_snapshot, CheckpointRows, CheckpointRowsRef, CheckpointScheme, RankLayout,
    ScanSnapshot, StorageData, StorageDataRef,
};
pub use trie::{ChildBuf, SuffixTrieCursor, TextIndex, MAX_CHILDREN};

/// The sentinel code appended to the text before suffix-array construction.
///
/// It matches the record-separator code of `alae-bioseq` (0) and is smaller
/// than every alphabet character, mirroring the `$` of Section 2.3.
pub const SENTINEL: u8 = 0;
