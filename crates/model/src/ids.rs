//! Typed identifiers for the entities of the problem model.
//!
//! All identifiers are dense indices (`u32`) into the corresponding vectors
//! of a [`crate::Problem`]; the newtypes exist so that a flow index can never
//! be used where a class index is expected ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a dense index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// The dense index as `usize`, for direct vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                v.0
            }
        }
    };
}

id_type!(
    /// Identifies a message flow (producer stream).
    FlowId,
    "flow"
);
id_type!(
    /// Identifies a consumer class. Each class is associated with exactly one
    /// flow and attaches to exactly one node.
    ClassId,
    "class"
);
id_type!(
    /// Identifies an overlay node (broker).
    NodeId,
    "node"
);
id_type!(
    /// Identifies a unidirectional overlay link.
    LinkId,
    "link"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trips_and_accessors() {
        let f = FlowId::new(3);
        assert_eq!(f.index(), 3);
        assert_eq!(u32::from(f), 3);
        assert_eq!(FlowId::from(3u32), f);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(FlowId::new(1).to_string(), "flow1");
        assert_eq!(ClassId::new(2).to_string(), "class2");
        assert_eq!(NodeId::new(0).to_string(), "node0");
        assert_eq!(LinkId::new(9).to_string(), "link9");
    }

    #[test]
    fn ordering_and_hash() {
        assert!(NodeId::new(1) < NodeId::new(2));
        let set: HashSet<_> = [ClassId::new(1), ClassId::new(1), ClassId::new(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }
}
