//! 802.11 channelization and US (FCC) regulatory tables.
//!
//! Reproduces the spectrum facts the paper leans on (§4.1.1): in the US
//! there are twenty-five 20 MHz, twelve 40 MHz, six 80 MHz and two
//! 160 MHz channels in 5 GHz, versus three non-overlapping channels in
//! 2.4 GHz; DFS rules remove all but nine 20 MHz / four 40 MHz / two
//! 80 MHz / zero 160 MHz of them for non-DFS-certified devices (§4.5.2).
//! Unit tests pin each of those counts.
//!
//! None of that changes at run time, so it is data: [`blocks`] is the
//! table of every legal (band, block, width), built at compile time by
//! the one function that states the bonding rules, and everything
//! geometric about a [`Channel`] — [`Channel::slots`], `footprint`,
//! `overlaps`, `requires_dfs`, legality itself — is a lookup in it.

use std::fmt;
use std::ops::Range;

/// Radio band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Band {
    /// 2.4 GHz ISM band (channels 1–11 in the US).
    Band2_4,
    /// 5 GHz U-NII bands.
    Band5,
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Band2_4 => write!(f, "2.4GHz"),
            Band::Band5 => write!(f, "5GHz"),
        }
    }
}

/// Channel width. 80+80 MHz is intentionally unsupported: the paper's
/// deployments do not use it and no Meraki AP of that era shipped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Width {
    W20,
    W40,
    W80,
    W160,
}

impl Width {
    /// Width in MHz.
    pub const fn mhz(self) -> u32 {
        match self {
            Width::W20 => 20,
            Width::W40 => 40,
            Width::W80 => 80,
            Width::W160 => 160,
        }
    }

    /// Number of 20 MHz sub-channels.
    pub const fn subchannels(self) -> u32 {
        self.mhz() / 20
    }

    /// The next narrower width, or `None` at 20 MHz. Used when stepping
    /// a bonded channel down under contention.
    pub const fn narrower(self) -> Option<Width> {
        match self {
            Width::W20 => None,
            Width::W40 => Some(Width::W20),
            Width::W80 => Some(Width::W40),
            Width::W160 => Some(Width::W80),
        }
    }

    /// All widths, narrow to wide.
    pub const ALL: [Width; 4] = [Width::W20, Width::W40, Width::W80, Width::W160];

    /// Widths up to and including `self`, narrow to wide — the range the
    /// paper's `NodeP` product iterates over (`b = 20MHz .. cw`).
    pub fn up_to(self) -> &'static [Width] {
        match self {
            Width::W20 => &[Width::W20],
            Width::W40 => &[Width::W20, Width::W40],
            Width::W80 => &[Width::W20, Width::W40, Width::W80],
            Width::W160 => &[Width::W20, Width::W40, Width::W80, Width::W160],
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.mhz())
    }
}

/// An operating channel: a band, a primary 20 MHz channel number, and a
/// bonded width. Equality is structural; two channels interfere when any
/// of their 20 MHz sub-channels overlap in frequency (see
/// [`Channel::overlaps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    pub band: Band,
    /// Primary 20 MHz channel number (e.g. 36, 149, or 1–11 in 2.4 GHz).
    pub primary: u16,
    pub width: Width,
}

/// US 20 MHz channel numbers in 5 GHz: U-NII-1, U-NII-2A (DFS),
/// U-NII-2C (DFS), U-NII-3. 25 channels total.
pub const US_5GHZ_20: [u16; 25] = [
    36, 40, 44, 48, // U-NII-1
    52, 56, 60, 64, // U-NII-2A (DFS)
    100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140, 144, // U-NII-2C (DFS)
    149, 153, 157, 161, 165, // U-NII-3
];

/// US 2.4 GHz channel numbers (1–11).
pub const US_2_4GHZ: [u16; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// The three non-overlapping 2.4 GHz channels.
pub const US_2_4GHZ_NON_OVERLAPPING: [u16; 3] = [1, 6, 11];

/// Is this 5 GHz 20 MHz channel number subject to Dynamic Frequency
/// Selection (radar detection + 1-minute CAC)?
pub const fn is_dfs_20(primary: u16) -> bool {
    matches!(primary, 52..=64 | 100..=144)
}

/// The band's 20 MHz channel numbers, ascending: [`US_2_4GHZ`] or
/// [`US_5GHZ_20`]. A *slot* is an index into this table.
pub const fn channel_numbers(band: Band) -> &'static [u16] {
    match band {
        Band::Band2_4 => &US_2_4GHZ,
        Band::Band5 => &US_5GHZ_20,
    }
}

/// Slot of a 20 MHz channel number: its index in
/// [`channel_numbers`]`(band)`, or `None` for a number the band lacks.
#[inline]
pub fn slot_of(band: Band, ch20: u16) -> Option<usize> {
    let (first, first_slot) = match (band, ch20) {
        (Band::Band2_4, 1..=11) => return Some(ch20 as usize - 1),
        (Band::Band5, 36..=64) => (36, SEGMENT_BOUNDS_5GHZ[0]),
        (Band::Band5, 100..=144) => (100, SEGMENT_BOUNDS_5GHZ[1]),
        (Band::Band5, 149..=165) => (149, SEGMENT_BOUNDS_5GHZ[2]),
        _ => return None,
    };
    (ch20 - first)
        .is_multiple_of(4)
        .then(|| first_slot + usize::from((ch20 - first) / 4))
}

/// The slots of `slots` as a bit mask (bit `s` = slot `s`), the form
/// [`Channel::footprint`] takes.
pub const fn slot_mask(slots: Range<usize>) -> u32 {
    ((1u32 << slots.end) - 1) & !((1u32 << slots.start) - 1)
}

/// Where the segments of [`US_5GHZ_20`] that a bond may not leave begin,
/// and the last one ends: the three runs contiguous in frequency (36–64,
/// 100–144, 149–161), and channel 165 alone — it adjoins 161, but no
/// bond may include it.
const SEGMENT_BOUNDS_5GHZ: [usize; 5] = [0, 8, 20, 24, 25];

/// A legal US operating block: the run of the band's 20 MHz table that
/// a channel of one width occupies, whichever of its 20 MHz channels
/// is the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// The block as [`channels`] lists it: named by its first channel.
    pub channel: Channel,
    /// Position in [`blocks`]`(band)`, below [`MAX_BLOCKS`].
    pub index: usize,
    /// First slot covered, and one past the last.
    pub start: usize,
    pub end: usize,
    /// See [`Channel::footprint`].
    pub footprint: u32,
    /// See [`Channel::requires_dfs`].
    pub dfs: bool,
}

impl Block {
    /// The slots (indices into [`channel_numbers`]) the block covers.
    pub fn slots(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// Blocks in the larger band: 25 + 12 + 6 + 2 in 5 GHz (§4.1.1).
pub const MAX_BLOCKS: usize = 45;

/// One band's [`Block`]s and the index from (primary, width) into them.
struct Catalog {
    blocks: [Block; MAX_BLOCKS],
    len: usize,
    /// `of[primary][width]`: the block a `width`-wide channel on that
    /// primary occupies, or `NO_BLOCK`.
    of: [[u8; 4]; MAX_NUMBER + 1],
}

/// The highest 20 MHz channel number of either band.
const MAX_NUMBER: usize = 165;
const NO_BLOCK: u8 = u8::MAX;
const _: () = assert!(MAX_BLOCKS <= NO_BLOCK as usize);

/// The bonding rules, stated once. A bond of `n` 20 MHz channels is an
/// `n`-aligned run within its segment, legal iff it fits there — which
/// yields exactly the FCC blocks (80 MHz: 36–48, 52–64, 100–112,
/// 116–128, 132–144, 149–161), leaves 160 MHz only 36–64 and 100–128
/// (a second block in 100–144 would need channels 148 and 152) and
/// keeps 165 out of every bond. 2.4 GHz is one segment and 20 MHz only:
/// 40 MHz exists in the standard but always overlaps the three usable
/// channels and Meraki never enables it; its 22 MHz mask reaches four
/// channel numbers either side of the slot.
const fn catalog(band: Band) -> Catalog {
    let (bounds, widths, reach): (&[usize], usize, usize) = match band {
        Band::Band2_4 => (&[0, US_2_4GHZ.len()], 1, 4),
        Band::Band5 => (&SEGMENT_BOUNDS_5GHZ, Width::ALL.len(), 0),
    };
    let numbers = channel_numbers(band);
    let filler = Block {
        channel: Channel {
            band,
            primary: 0,
            width: Width::W20,
        },
        index: 0,
        start: 0,
        end: 0,
        footprint: 0,
        dfs: false,
    };
    let mut cat = Catalog {
        blocks: [filler; MAX_BLOCKS],
        len: 0,
        of: [[NO_BLOCK; 4]; MAX_NUMBER + 1],
    };
    let mut w = 0;
    while w < widths {
        let n = Width::ALL[w].subchannels() as usize;
        let mut s = 0;
        while s + 1 < bounds.len() {
            let mut start = bounds[s];
            while start + n <= bounds[s + 1] {
                let end = start + n;
                let mut dfs = false;
                let mut slot = start;
                while slot < end {
                    dfs |= is_dfs_20(numbers[slot]);
                    cat.of[numbers[slot] as usize][w] = cat.len as u8;
                    slot += 1;
                }
                let reach_end = if end + reach < numbers.len() {
                    end + reach
                } else {
                    numbers.len()
                };
                cat.blocks[cat.len] = Block {
                    channel: Channel {
                        band,
                        primary: numbers[start],
                        width: Width::ALL[w],
                    },
                    index: cat.len,
                    start,
                    end,
                    footprint: slot_mask(start.saturating_sub(reach)..reach_end),
                    dfs,
                };
                cat.len += 1;
                start = end;
            }
            s += 1;
        }
        w += 1;
    }
    cat
}

static CATALOGS: [Catalog; 2] = [catalog(Band::Band2_4), catalog(Band::Band5)];

/// Every legal block of `band`: narrow widths first, ascending within a
/// width.
pub fn blocks(band: Band) -> &'static [Block] {
    let cat = &CATALOGS[band as usize];
    &cat.blocks[..cat.len]
}

impl Channel {
    /// Construct a channel, validating that the (band, primary, width)
    /// triple is a legal US configuration.
    pub fn new(band: Band, primary: u16, width: Width) -> Result<Channel, ChannelError> {
        let c = Channel {
            band,
            primary,
            width,
        };
        if c.block().is_some() {
            return Ok(c);
        }
        Err(match (slot_of(band, primary), band) {
            (None, _) => ChannelError::UnknownPrimary(primary),
            (Some(_), Band::Band2_4) => ChannelError::WidthNotAllowed(width),
            (Some(_), Band::Band5) => ChannelError::InvalidBond(primary, width),
        })
    }

    /// 20 MHz channel in 5 GHz (panics on invalid number — test helper).
    pub fn five(primary: u16) -> Channel {
        Channel::new(Band::Band5, primary, Width::W20).expect("valid 5 GHz channel")
    }

    /// 2.4 GHz channel (always 20 MHz wide here; 40 MHz in 2.4 GHz is
    /// disabled in enterprise deployments, matching Meraki practice).
    pub fn two4(primary: u16) -> Channel {
        Channel::new(Band::Band2_4, primary, Width::W20).expect("valid 2.4 GHz channel")
    }

    /// This channel's entry in the table of legal blocks: `Some` iff
    /// [`Channel::new`] accepts the triple (an 80 MHz bond straddling
    /// 144/149, 160 MHz anywhere except 36–64 / 100–128, or anything
    /// but 20 MHz in 2.4 GHz has none). Everything geometric below is
    /// read off it.
    #[inline]
    pub fn block(&self) -> Option<&'static Block> {
        let cat = &CATALOGS[self.band as usize];
        let at = cat.of.get(usize::from(self.primary))?[self.width as usize];
        (at != NO_BLOCK).then(|| &cat.blocks[usize::from(at)])
    }

    /// The slots (indices into [`channel_numbers`]) this possibly bonded
    /// channel covers — always one contiguous run of the table — or
    /// `None` if the bond is not a legal US configuration.
    #[inline]
    pub fn slots(&self) -> Option<Range<usize>> {
        self.block().map(Block::slots)
    }

    /// The 20 MHz channel numbers under [`Channel::slots`], as a slice
    /// of the band's table.
    pub fn subchannels(&self) -> Option<&'static [u16]> {
        self.slots().map(|r| &channel_numbers(self.band)[r])
    }

    /// Bit `s` is set iff this channel shares spectrum with the 20 MHz
    /// channel in slot `s`. In 5 GHz that is the channel's own block; in
    /// 2.4 GHz the 22 MHz mask reaches four channel numbers either
    /// side. Zero for an illegal channel.
    #[inline]
    pub fn footprint(&self) -> u32 {
        self.block().map_or(0, |b| b.footprint)
    }

    /// Do two channels share any spectrum? This is the interference
    /// predicate: for an 80 MHz transmission, energy on any of its four
    /// 20 MHz sub-channels causes contention or corruption (§4.1.1).
    /// `self`'s [`Channel::footprint`] meets one of `other`'s slots; a
    /// channel not in its band's table overlaps nothing, itself
    /// included.
    #[inline]
    pub fn overlaps(&self, other: &Channel) -> bool {
        self.band == other.band
            && other
                .slots()
                .is_some_and(|s| self.footprint() & slot_mask(s) != 0)
    }

    /// True if any 20 MHz sub-channel requires DFS.
    #[inline]
    pub fn requires_dfs(&self) -> bool {
        self.block().is_some_and(|b| b.dfs)
    }

    /// Same channel narrowed one step (keeps the primary).
    pub fn narrowed(&self) -> Option<Channel> {
        let w = self.width.narrower()?;
        Channel::new(self.band, self.primary, w).ok()
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ch{}@{}", self.band, self.primary, self.width)
    }
}

/// Errors from [`Channel::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Channel number not in the US table for the band.
    UnknownPrimary(u16),
    /// Width not permitted in this band by policy.
    WidthNotAllowed(Width),
    /// The (primary, width) pair does not form a legal bonded block.
    InvalidBond(u16, Width),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::UnknownPrimary(c) => write!(f, "unknown channel number {c}"),
            ChannelError::WidthNotAllowed(w) => write!(f, "width {w} not allowed in this band"),
            ChannelError::InvalidBond(c, w) => write!(f, "channel {c} cannot bond to {w}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Every legal US channel of the given band and width, ascending: one
/// per bonded block, named by the block's first channel.
pub fn channels(band: Band, width: Width) -> impl Iterator<Item = Channel> {
    blocks(band)
        .iter()
        .map(|b| b.channel)
        .filter(move |c| c.width == width)
}

/// [`channels`] collected.
pub fn all_channels(band: Band, width: Width) -> Vec<Channel> {
    channels(band, width).collect()
}

/// Enumerate legal channels, excluding DFS-gated ones (the choice set for
/// devices without DFS certification, §4.5.2).
pub fn non_dfs_channels(band: Band, width: Width) -> Vec<Channel> {
    all_channels(band, width)
        .into_iter()
        .filter(|c| !c.requires_dfs())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The paper's §4.1.1 channel counts, pinned exactly.
    #[test]
    fn us_5ghz_channel_counts_match_fcc() {
        assert_eq!(all_channels(Band::Band5, Width::W20).len(), 25);
        assert_eq!(all_channels(Band::Band5, Width::W40).len(), 12);
        assert_eq!(all_channels(Band::Band5, Width::W80).len(), 6);
        assert_eq!(all_channels(Band::Band5, Width::W160).len(), 2);
    }

    // The paper's §4.5.2 non-DFS counts, pinned exactly.
    #[test]
    fn non_dfs_counts_match_paper() {
        assert_eq!(non_dfs_channels(Band::Band5, Width::W20).len(), 9);
        assert_eq!(non_dfs_channels(Band::Band5, Width::W40).len(), 4);
        assert_eq!(non_dfs_channels(Band::Band5, Width::W80).len(), 2);
        assert_eq!(non_dfs_channels(Band::Band5, Width::W160).len(), 0);
    }

    #[test]
    fn two4_has_11_channels_3_clean() {
        assert_eq!(all_channels(Band::Band2_4, Width::W20).len(), 11);
        let c1 = Channel::two4(1);
        let c6 = Channel::two4(6);
        let c11 = Channel::two4(11);
        assert!(!c1.overlaps(&c6));
        assert!(!c6.overlaps(&c11));
        assert!(!c1.overlaps(&c11));
    }

    #[test]
    fn adjacent_two4_channels_overlap() {
        assert!(Channel::two4(1).overlaps(&Channel::two4(3)));
        assert!(Channel::two4(4).overlaps(&Channel::two4(6)));
        assert!(!Channel::two4(1).overlaps(&Channel::two4(6)));
    }

    /// The rule oracle: a bond's 20 MHz numbers as they were found
    /// before the geometry became a table — a `Vec` per call, found by
    /// scanning segments, each bonding rule its own check. Shares no
    /// code with [`catalog`].
    fn old_subchannel_numbers(ch: &Channel) -> Option<Vec<u16>> {
        if ch.band == Band::Band2_4 {
            return Some(vec![ch.primary]);
        }
        let n = ch.width.subchannels() as usize;
        let segments: [&[u16]; 3] = [&US_5GHZ_20[0..8], &US_5GHZ_20[8..20], &US_5GHZ_20[20..25]];
        for seg in segments {
            if let Some(pos) = seg.iter().position(|&c| c == ch.primary) {
                let block = &seg[pos - pos % n..];
                if block.len() < n {
                    return None;
                }
                let block = &block[..n];
                if ch.width != Width::W20 && block.contains(&165) {
                    return None;
                }
                if ch.width == Width::W160 && block[0] != 36 && block[0] != 100 {
                    return None;
                }
                return Some(block.to_vec());
            }
        }
        None
    }

    /// The oracle's verdict on a triple: its 20 MHz numbers if legal.
    fn old_legal(ch: &Channel) -> Option<Vec<u16>> {
        let legal = match ch.band {
            Band::Band2_4 => US_2_4GHZ.contains(&ch.primary) && ch.width == Width::W20,
            Band::Band5 => US_5GHZ_20.contains(&ch.primary),
        };
        old_subchannel_numbers(ch).filter(|_| legal)
    }

    /// Every (band, primary, width), legal or not.
    fn every_triple() -> impl Iterator<Item = Channel> {
        [Band::Band2_4, Band::Band5].into_iter().flat_map(|band| {
            (0..=200u16).flat_map(move |primary| {
                Width::ALL.into_iter().map(move |width| Channel {
                    band,
                    primary,
                    width,
                })
            })
        })
    }

    #[test]
    fn the_table_equals_the_rule_oracle_everywhere() {
        for ch in every_triple() {
            let table = channel_numbers(ch.band);
            let old = old_legal(&ch);
            assert_eq!(
                Channel::new(ch.band, ch.primary, ch.width).is_ok(),
                old.is_some(),
                "{ch}"
            );
            assert_eq!(ch.subchannels().map(<[u16]>::to_vec), old, "{ch}");
            let slot = |c: u16| table.iter().position(|&t| t == c).unwrap();
            let slots = old
                .as_ref()
                .map(|subs| slot(subs[0])..slot(subs[subs.len() - 1]) + 1);
            assert_eq!(ch.slots(), slots, "{ch}");
            // 5 GHz energy stays in the block; the 2.4 GHz mask reaches
            // every number within four of the primary.
            let footprint = old.as_ref().map_or(0, |subs| {
                let reach = |c: u16| match ch.band {
                    Band::Band2_4 => c.abs_diff(ch.primary) <= 4,
                    Band::Band5 => subs.contains(&c),
                };
                (0..table.len())
                    .filter(|&s| reach(table[s]))
                    .fold(0, |mask, s| mask | 1 << s)
            });
            assert_eq!(ch.footprint(), footprint, "{ch}");
            let dfs = old
                .as_ref()
                .is_some_and(|subs| subs.iter().any(|&c| is_dfs_20(c)));
            assert_eq!(ch.requires_dfs(), dfs, "{ch}");
        }
    }

    #[test]
    fn slots_index_the_band_table() {
        for band in [Band::Band2_4, Band::Band5] {
            let table = channel_numbers(band);
            for ch20 in 0..=200u16 {
                assert_eq!(
                    slot_of(band, ch20),
                    table.iter().position(|&c| c == ch20),
                    "{band} {ch20}"
                );
            }
        }
    }

    #[test]
    fn footprint_is_overlaps_against_every_slot() {
        for ch in every_triple().filter(|c| old_legal(c).is_some()) {
            for (slot, &ch20) in channel_numbers(ch.band).iter().enumerate() {
                let sub = Channel::new(ch.band, ch20, Width::W20).unwrap();
                assert_eq!(
                    ch.footprint() >> slot & 1 == 1,
                    ch.overlaps(&sub),
                    "{ch} vs {sub}"
                );
            }
        }
    }

    #[test]
    fn blocks_list_each_legal_run_once_narrow_first_ascending() {
        for band in [Band::Band2_4, Band::Band5] {
            // The oracle's enumeration: per width, the first primary
            // seen of each distinct run.
            let mut old = Vec::new();
            for width in Width::ALL {
                let mut seen: Vec<Vec<u16>> = Vec::new();
                let mut of_width = Vec::new();
                for &primary in channel_numbers(band) {
                    let ch = Channel {
                        band,
                        primary,
                        width,
                    };
                    if let Some(run) = old_legal(&ch).filter(|run| !seen.contains(run)) {
                        seen.push(run);
                        of_width.push(ch);
                    }
                }
                assert_eq!(all_channels(band, width), of_width, "{band} {width}");
                old.extend(of_width);
            }
            let listed: Vec<Channel> = blocks(band).iter().map(|b| b.channel).collect();
            assert_eq!(listed, old, "{band}");
            for (index, b) in blocks(band).iter().enumerate() {
                assert_eq!(b.index, index);
                assert_eq!(b.channel.block(), Some(b));
            }
        }
        assert_eq!(blocks(Band::Band5).len(), MAX_BLOCKS);
    }

    #[test]
    fn bonding_blocks_are_correct() {
        let c = Channel::new(Band::Band5, 44, Width::W80).unwrap();
        assert_eq!(c.subchannels().unwrap(), [36, 40, 44, 48]);
        let c = Channel::new(Band::Band5, 157, Width::W40).unwrap();
        assert_eq!(c.subchannels().unwrap(), [157, 161]);
        let c = Channel::new(Band::Band5, 56, Width::W160).unwrap();
        assert_eq!(c.subchannels().unwrap(), [36, 40, 44, 48, 52, 56, 60, 64]);
    }

    #[test]
    fn ch165_cannot_bond() {
        assert!(Channel::new(Band::Band5, 165, Width::W40).is_err());
        assert!(Channel::new(Band::Band5, 165, Width::W80).is_err());
        assert!(Channel::new(Band::Band5, 165, Width::W20).is_ok());
    }

    #[test]
    fn no_160_in_unii3() {
        assert!(Channel::new(Band::Band5, 149, Width::W160).is_err());
        assert!(Channel::new(Band::Band5, 132, Width::W160).is_err());
    }

    #[test]
    fn dfs_flags() {
        assert!(!Channel::five(36).requires_dfs());
        assert!(Channel::five(52).requires_dfs());
        assert!(Channel::five(100).requires_dfs());
        assert!(Channel::five(144).requires_dfs());
        assert!(!Channel::five(149).requires_dfs());
        // A 160 MHz bond at 36 spans DFS channels 52-64.
        let wide = Channel::new(Band::Band5, 36, Width::W160).unwrap();
        assert!(wide.requires_dfs());
        // An 80 MHz bond at 36 does not.
        let w80 = Channel::new(Band::Band5, 36, Width::W80).unwrap();
        assert!(!w80.requires_dfs());
    }

    #[test]
    fn overlap_is_symmetric_and_subchannel_based() {
        let wide = Channel::new(Band::Band5, 36, Width::W80).unwrap();
        let narrow = Channel::five(48);
        assert!(wide.overlaps(&narrow));
        assert!(narrow.overlaps(&wide));
        let far = Channel::five(149);
        assert!(!wide.overlaps(&far));
    }

    #[test]
    fn different_bands_never_overlap() {
        assert!(!Channel::two4(1).overlaps(&Channel::five(36)));
    }

    #[test]
    fn narrowed_steps_down() {
        let c = Channel::new(Band::Band5, 36, Width::W80).unwrap();
        let n = c.narrowed().unwrap();
        assert_eq!(n.width, Width::W40);
        assert_eq!(n.primary, 36);
        assert!(Channel::five(36).narrowed().is_none());
    }

    /// The frequency oracle: `overlaps` as it was before it read the
    /// catalog. A 20 MHz channel number's center frequency; ±11 MHz
    /// around it in 2.4 GHz (the 22 MHz DSSS mask), ±10 MHz beyond each
    /// end of a 5 GHz bond; overlap iff the two ranges intersect.
    /// Defined on legal channels only.
    fn freq_overlaps(a: &Channel, b: &Channel) -> bool {
        let range = |ch: &Channel| {
            let subs = old_legal(ch).expect("a legal channel");
            let (base, edge) = match ch.band {
                Band::Band2_4 => (2407, 11),
                Band::Band5 => (5000, 10),
            };
            let center = |n: u16| base + 5 * u32::from(n);
            (center(subs[0]) - edge, center(subs[subs.len() - 1]) + edge)
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
        a.band == b.band && a_lo < b_hi && b_lo < a_hi
    }

    #[test]
    fn overlaps_equals_the_frequency_oracle_on_every_pair() {
        // Every legal channel of both bands against every other, the
        // cross-band pairs included; an off-table triple (an unknown
        // primary, a bond the rules forbid, 40 MHz in 2.4 GHz) overlaps
        // nothing, not even itself.
        let triples: Vec<(Channel, bool)> = every_triple()
            .map(|ch| (ch, old_legal(&ch).is_some()))
            .collect();
        // 11 in 2.4 GHz; in 5 GHz, 25 / 24 / 24 / 16 primaries by width.
        assert_eq!(triples.iter().filter(|t| t.1).count(), 100);
        for &(a, a_legal) in &triples {
            for &(b, b_legal) in &triples {
                let want = a_legal && b_legal && freq_overlaps(&a, &b);
                assert_eq!(a.overlaps(&b), want, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn width_up_to_matches_paper_product_range() {
        assert_eq!(Width::W80.up_to(), &[Width::W20, Width::W40, Width::W80]);
        assert_eq!(Width::W20.up_to(), &[Width::W20]);
    }

    #[test]
    fn invalid_channels_rejected() {
        use ChannelError::*;
        let err = |band, primary, width| Channel::new(band, primary, width).unwrap_err();
        assert_eq!(err(Band::Band5, 37, Width::W20), UnknownPrimary(37));
        assert_eq!(err(Band::Band2_4, 12, Width::W40), UnknownPrimary(12));
        assert_eq!(
            err(Band::Band2_4, 6, Width::W40),
            WidthNotAllowed(Width::W40)
        );
        assert_eq!(
            err(Band::Band5, 132, Width::W160),
            InvalidBond(132, Width::W160)
        );
    }

    #[test]
    fn display_formats() {
        let c = Channel::new(Band::Band5, 36, Width::W80).unwrap();
        assert_eq!(format!("{c}"), "5GHz ch36@80MHz");
    }
}
