//! Strongly-typed identifiers for nodes, routers and groups.
//!
//! All identifiers are global (network-wide) indices wrapped in newtypes so that the
//! compiler catches accidental mix-ups between e.g. a router index and a node index.

use std::fmt;

/// Identifier of a computing node (server) attached to a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a router (switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u32);

/// Identifier of a group (supernode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

macro_rules! impl_id {
    ($t:ty, $name:literal) => {
        impl $t {
            /// The raw index as `usize`, for indexing into arrays.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($name, "{}"), self.0)
            }
        }

        impl From<usize> for $t {
            fn from(v: usize) -> Self {
                Self(v as u32)
            }
        }
    };
}

impl_id!(NodeId, "n");
impl_id!(RouterId, "r");
impl_id!(GroupId, "g");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RouterId(12).to_string(), "r12");
        assert_eq!(GroupId(0).to_string(), "g0");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(NodeId::from(17usize).index(), 17);
        assert_eq!(RouterId::from(5usize).index(), 5);
        assert_eq!(GroupId::from(2usize).index(), 2);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(RouterId(1) < RouterId(2));
        assert!(NodeId(9) > NodeId(3));
    }
}
