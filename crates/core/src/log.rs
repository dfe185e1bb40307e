use core::fmt;

use rr_mem::CoreId;

/// One entry of a per-processor interval log (paper Figure 6(c)).
///
/// Entries appear in counting (program) order within an interval; an
/// [`LogEntry::IntervalFrame`] closes each interval and carries its global
/// ordering timestamp (the QuickRec-style scalar clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogEntry {
    /// A run of `instrs` consecutive instructions (memory and non-memory
    /// alike) to be replayed natively in order.
    InorderBlock {
        /// Number of instructions in the block (the *Current InorderBlock
        /// Size* count, 32 bits).
        instrs: u32,
    },
    /// The next instruction in program order is a load that was reordered;
    /// replay must inject `value` into its destination register instead of
    /// accessing memory (paper §3.3.1).
    ReorderedLoad {
        /// The value the load obtained when it performed.
        value: u64,
    },
    /// The next instruction in program order is a store that was reordered;
    /// before replay, a patching step moves this entry `offset` intervals
    /// back — to the interval where the store performed — and leaves a
    /// dummy here (paper §3.3.2).
    ReorderedStore {
        /// Byte address written.
        addr: u64,
        /// Value written.
        value: u64,
        /// `CISN - PISN`: how many intervals before this one the store
        /// performed. The hardware field is 16 bits; the in-memory (and
        /// wire) width is 32 so that an access whose perform and counting
        /// events drift ≥ 65536 intervals apart still records its exact
        /// distance instead of aliasing to a small offset (see
        /// [`LogEntry::bits`] for the size accounting).
        offset: u32,
    },
    /// The next instruction in program order is an atomic read-modify-write
    /// that was reordered. Replay injects `loaded` into the destination
    /// register here; the store half (if the RMW wrote — a failed CAS does
    /// not) is patched back like a reordered store.
    ///
    /// The paper does not discuss atomics explicitly; this entry is the
    /// natural composition of its reordered-load and reordered-store
    /// treatments (see DESIGN.md).
    ReorderedRmw {
        /// Value the RMW read.
        loaded: u64,
        /// Byte address accessed.
        addr: u64,
        /// Value written, or `None` for a failed compare-and-swap.
        stored: Option<u64>,
        /// `CISN - PISN` for the store half (see
        /// [`LogEntry::ReorderedStore`] for the width rationale).
        offset: u32,
    },
    /// Closes the current interval.
    IntervalFrame {
        /// The interval's sequence number (16-bit, wrapping).
        cisn: u16,
        /// Global timestamp at termination; the total order of intervals
        /// across processors (QuickRec ordering, paper §4.1).
        timestamp: u64,
    },
}

impl LogEntry {
    /// The entry's size in bits, used for the paper's log-size metric
    /// (Figure 11: "uncompressed log size ... in bits per 1K instructions").
    ///
    /// Widths follow Figure 6(c) and Table 1: a 2-bit type tag; 32-bit
    /// block size; 64-bit values/addresses; 16-bit offset; 16-bit CISN;
    /// 64-bit global timestamp. A reordered RMW is charged as a reordered
    /// load plus a reordered store. An offset too large for the paper's
    /// 16-bit field (perform and counting ≥ 65536 intervals apart) is
    /// charged 32 bits — the escape the hardware would need.
    #[must_use]
    pub fn bits(&self) -> u64 {
        let offset_bits = |offset: u32| -> u64 {
            if offset <= u32::from(u16::MAX) {
                16
            } else {
                32
            }
        };
        match self {
            LogEntry::InorderBlock { .. } => 2 + 32,
            LogEntry::ReorderedLoad { .. } => 2 + 64,
            LogEntry::ReorderedStore { offset, .. } => 2 + 64 + 64 + offset_bits(*offset),
            LogEntry::ReorderedRmw { offset, .. } => {
                (2 + 64) + (2 + 64 + 64 + offset_bits(*offset))
            }
            LogEntry::IntervalFrame { .. } => 2 + 16 + 64,
        }
    }
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogEntry::InorderBlock { instrs } => write!(f, "IB({instrs})"),
            LogEntry::ReorderedLoad { value } => write!(f, "RL(val={value:#x})"),
            LogEntry::ReorderedStore {
                addr,
                value,
                offset,
            } => write!(f, "RS(addr={addr:#x}, val={value:#x}, off={offset})"),
            LogEntry::ReorderedRmw {
                loaded,
                addr,
                stored,
                offset,
            } => write!(
                f,
                "RRMW(loaded={loaded:#x}, addr={addr:#x}, stored={stored:?}, off={offset})"
            ),
            LogEntry::IntervalFrame { cisn, timestamp } => {
                write!(f, "FRAME(cisn={cisn}, ts={timestamp})")
            }
        }
    }
}

/// The complete recording of one processor: its log entries in counting
/// order, interval by interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalLog {
    /// The recorded processor.
    pub core: CoreId,
    /// Entries in counting order; each interval ends with an
    /// [`LogEntry::IntervalFrame`].
    pub entries: Vec<LogEntry>,
}

impl IntervalLog {
    /// Creates an empty log for `core`.
    #[must_use]
    pub fn new(core: CoreId) -> Self {
        IntervalLog {
            core,
            entries: Vec::new(),
        }
    }

    /// Total log size in bits (Figure 11 metric).
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.entries.iter().map(LogEntry::bits).sum()
    }

    /// Number of intervals (frames).
    #[must_use]
    pub fn intervals(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, LogEntry::IntervalFrame { .. }))
            .count()
    }

    /// Number of `InorderBlock` entries (Figure 10 metric).
    #[must_use]
    pub fn inorder_blocks(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, LogEntry::InorderBlock { .. }))
            .count()
    }

    /// Size in bytes of the log in a flat fixed-width layout: one core
    /// byte, then per entry a tag byte plus every field at its full width
    /// (`InorderBlock` 4, `ReorderedLoad` 8, `ReorderedStore` 20,
    /// `ReorderedRmw` 20, or 28 with a stored value, `IntervalFrame` 10).
    /// This is the uncompressed baseline the varint/delta `.rrlog`
    /// encoding is measured against (`rec.*.flat_bytes` in the Figure 11
    /// metrics).
    #[must_use]
    pub fn flat_len(&self) -> usize {
        let entry = |e: &LogEntry| match e {
            LogEntry::InorderBlock { .. } => 1 + 4,
            LogEntry::ReorderedLoad { .. } => 1 + 8,
            LogEntry::ReorderedStore { .. } => 1 + 8 + 8 + 4,
            LogEntry::ReorderedRmw { stored, .. } => {
                1 + 8 + 8 + if stored.is_some() { 8 } else { 0 } + 4
            }
            LogEntry::IntervalFrame { .. } => 1 + 2 + 8,
        };
        1 + self.entries.iter().map(entry).sum::<usize>()
    }

    /// Serializes the log as the chunked, checksummed `.rrlog` wire
    /// format (see [`crate::wire`]) — a thin adapter over
    /// [`wire::encode_chunked`](crate::wire::encode_chunked).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_chunked(self)
    }

    /// Deserializes a chunked `.rrlog` byte stream produced by
    /// [`IntervalLog::encode`] — a thin adapter over
    /// [`wire::decode_chunked`](crate::wire::decode_chunked).
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`](crate::wire::WireError) on a bad
    /// header, truncation, or corruption; use
    /// [`wire::decode_chunked_recover`](crate::wire::decode_chunked_recover)
    /// to also obtain every entry up to the failure point.
    pub fn decode(bytes: &[u8]) -> Result<Self, crate::wire::WireError> {
        crate::wire::decode_chunked(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> IntervalLog {
        IntervalLog {
            core: CoreId::new(3),
            entries: vec![
                LogEntry::InorderBlock { instrs: 2 },
                LogEntry::ReorderedLoad { value: 0xdead },
                LogEntry::InorderBlock { instrs: 2 },
                LogEntry::ReorderedStore {
                    addr: 0x100,
                    value: 7,
                    offset: 5,
                },
                LogEntry::ReorderedRmw {
                    loaded: 1,
                    addr: 0x200,
                    stored: None,
                    offset: 2,
                },
                LogEntry::InorderBlock { instrs: 2 },
                LogEntry::IntervalFrame {
                    cisn: 15,
                    timestamp: 123_456,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let log = sample_log();
        let decoded = IntervalLog::decode(&log.encode()).expect("round trip");
        assert_eq!(decoded, log);
    }

    #[test]
    fn chunked_truncation_recovers_all_prior_chunks() {
        let log = sample_log();
        // Force multiple chunks so mid-chunk cuts have prior chunks to
        // recover. A cut mid-chunk must surface as `Truncated` while every
        // entry of every earlier chunk decodes intact; a cut exactly at a
        // chunk boundary is a valid (shorter) stream.
        let bytes = crate::wire::encode_chunked_with(&log, 8);
        for cut in 0..bytes.len() {
            let (recovered, err) = crate::wire::decode_chunked_recover(&bytes[..cut]);
            let at_boundary = err.is_none();
            if !at_boundary {
                assert!(
                    matches!(err, Some(crate::wire::WireError::Truncated { .. })),
                    "cut at {cut} must yield Truncated, got {err:?}"
                );
            }
            assert_eq!(
                recovered.entries[..],
                log.entries[..recovered.entries.len()],
                "cut at {cut}: recovered entries must be an intact prefix"
            );
        }
        // The full stream decodes losslessly.
        let (full, err) = crate::wire::decode_chunked_recover(&bytes);
        assert!(err.is_none());
        assert_eq!(full, log);
    }

    #[test]
    fn bit_accounting_matches_figure_6c() {
        assert_eq!(LogEntry::InorderBlock { instrs: 1 }.bits(), 34);
        assert_eq!(LogEntry::ReorderedLoad { value: 0 }.bits(), 66);
        assert_eq!(
            LogEntry::ReorderedStore {
                addr: 0,
                value: 0,
                offset: 0
            }
            .bits(),
            146
        );
        assert_eq!(
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 0
            }
            .bits(),
            82
        );
        let log = sample_log();
        assert_eq!(log.bits(), 34 + 66 + 34 + 146 + 212 + 34 + 82);
        // An offset past the paper's 16-bit field is charged the 32-bit
        // escape width.
        assert_eq!(
            LogEntry::ReorderedStore {
                addr: 0,
                value: 0,
                offset: u32::from(u16::MAX) + 2,
            }
            .bits(),
            162
        );
    }

    #[test]
    fn wide_offsets_round_trip_in_both_codecs() {
        let log = IntervalLog {
            core: CoreId::new(0),
            entries: vec![
                LogEntry::ReorderedStore {
                    addr: 0x100,
                    value: 7,
                    offset: u32::from(u16::MAX) + 2,
                },
                LogEntry::ReorderedRmw {
                    loaded: 1,
                    addr: 0x200,
                    stored: Some(9),
                    offset: u32::MAX,
                },
                LogEntry::IntervalFrame {
                    cisn: 1,
                    timestamp: 10,
                },
            ],
        };
        // Both delta codecs: v1/v2 carry frame deltas across chunks, v3
        // resets them per chunk; neither may narrow a wide offset.
        for version in [2, crate::wire::VERSION] {
            let bytes = crate::wire::encode_chunked_with_version(&log, 8, version);
            assert_eq!(
                crate::wire::decode_chunked(&bytes).expect("decodes"),
                log,
                "v{version}"
            );
        }
    }

    #[test]
    fn flat_len_is_the_fixed_width_size() {
        // core byte, then tag + fields: block 1+4, load 1+8, block 1+4,
        // store 1+8+8+4, failed rmw 1+8+8+4, block 1+4, frame 1+2+8.
        assert_eq!(sample_log().flat_len(), 1 + 5 + 9 + 5 + 21 + 21 + 5 + 11);
        assert_eq!(IntervalLog::new(CoreId::new(0)).flat_len(), 1);
    }

    #[test]
    fn counters_count() {
        let log = sample_log();
        assert_eq!(log.intervals(), 1);
        assert_eq!(log.inorder_blocks(), 3);
    }
}
