//! Router port naming and the flat port numbering used by the simulator.
//!
//! A router of a balanced Dragonfly with parameter `h` has three classes of ports:
//!
//! * `2h − 1` **local** ports, one per other router of the same group,
//! * `h` **global** ports, each owning one global channel of the group,
//! * `h` **terminal** ports, one per attached computing node (used both for injection
//!   and ejection).
//!
//! The simulator indexes ports of a router with a single flat `usize` in the order
//! `local | global | terminal`; [`Port`] is the typed view of that index.

use std::fmt;

/// Class of a router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Link to another router of the same group.
    Local,
    /// Link to a router of another group.
    Global,
    /// Link to an attached computing node.
    Terminal,
}

/// Typed router port: the class plus the index *within* that class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Local port `0 ..= 2h-2`.
    Local(usize),
    /// Global port `0 ..= h-1`.
    Global(usize),
    /// Terminal port `0 ..= h-1`.
    Terminal(usize),
}

impl Port {
    /// The class of this port.
    #[inline]
    pub fn kind(self) -> PortKind {
        match self {
            Port::Local(_) => PortKind::Local,
            Port::Global(_) => PortKind::Global,
            Port::Terminal(_) => PortKind::Terminal,
        }
    }

    /// The index within the class.
    #[inline]
    pub fn class_index(self) -> usize {
        match self {
            Port::Local(i) | Port::Global(i) | Port::Terminal(i) => i,
        }
    }

    /// Flatten to the simulator's single port index for a router with parameter `h`.
    #[inline]
    pub fn flat(self, h: usize) -> usize {
        match self {
            Port::Local(i) => {
                debug_assert!(i < 2 * h - 1);
                i
            }
            Port::Global(i) => {
                debug_assert!(i < h);
                (2 * h - 1) + i
            }
            Port::Terminal(i) => {
                debug_assert!(i < h);
                (2 * h - 1) + h + i
            }
        }
    }

    /// Recover the typed port from a flat index.
    #[inline]
    pub fn from_flat(flat: usize, h: usize) -> Port {
        let locals = 2 * h - 1;
        if flat < locals {
            Port::Local(flat)
        } else if flat < locals + h {
            Port::Global(flat - locals)
        } else {
            debug_assert!(
                flat < locals + 2 * h,
                "flat port {flat} out of range for h={h}"
            );
            Port::Terminal(flat - locals - h)
        }
    }

    /// Is this a local port?
    #[inline]
    pub fn is_local(self) -> bool {
        matches!(self, Port::Local(_))
    }

    /// Is this a global port?
    #[inline]
    pub fn is_global(self) -> bool {
        matches!(self, Port::Global(_))
    }

    /// Is this a terminal port?
    #[inline]
    pub fn is_terminal(self) -> bool {
        matches!(self, Port::Terminal(_))
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Local(i) => write!(f, "L{i}"),
            Port::Global(i) => write!(f, "G{i}"),
            Port::Terminal(i) => write!(f, "T{i}"),
        }
    }
}

/// Total number of ports of a router (flat indexing range) for parameter `h`.
#[inline]
pub fn ports_per_router(h: usize) -> usize {
    (2 * h - 1) + h + h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_round_trip_h4() {
        let h = 4;
        for flat in 0..ports_per_router(h) {
            let port = Port::from_flat(flat, h);
            assert_eq!(port.flat(h), flat);
        }
    }

    #[test]
    fn flat_round_trip_h8() {
        let h = 8;
        for flat in 0..ports_per_router(h) {
            let port = Port::from_flat(flat, h);
            assert_eq!(port.flat(h), flat);
        }
    }

    #[test]
    fn layout_matches_paper_radix() {
        // Radix is 4h-1 network ports plus h terminals, i.e. our flat space is 4h-1+... :
        // local (2h-1) + global (h) + terminal (h) = 4h - 1.
        assert_eq!(ports_per_router(8), 4 * 8 - 1);
        assert_eq!(ports_per_router(4), 4 * 4 - 1);
    }

    #[test]
    fn kinds_partition_flat_space() {
        let h = 4;
        let kinds: Vec<PortKind> = (0..ports_per_router(h))
            .map(|f| Port::from_flat(f, h).kind())
            .collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == PortKind::Local).count(),
            2 * h - 1
        );
        assert_eq!(kinds.iter().filter(|k| **k == PortKind::Global).count(), h);
        assert_eq!(
            kinds.iter().filter(|k| **k == PortKind::Terminal).count(),
            h
        );
    }

    #[test]
    fn class_index_and_predicates() {
        assert_eq!(Port::Local(3).class_index(), 3);
        assert!(Port::Local(0).is_local());
        assert!(Port::Global(1).is_global());
        assert!(Port::Terminal(2).is_terminal());
        assert!(!Port::Terminal(2).is_global());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Port::Local(2).to_string(), "L2");
        assert_eq!(Port::Global(0).to_string(), "G0");
        assert_eq!(Port::Terminal(7).to_string(), "T7");
    }
}
