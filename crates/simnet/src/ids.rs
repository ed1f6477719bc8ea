//! Index newtypes for the simulator's arenas.
//!
//! Everything in the simulator lives in flat `Vec` arenas and is referred to
//! by index; these newtypes keep host, switch, transmitter, buffer-pool and
//! connection indices from being mixed up at compile time.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from an arena index. The caller is responsible
            /// for the index referring to an existing entity in the
            /// simulator it is used with.
            pub fn new(i: usize) -> Self {
                assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }

            /// Builds an id from an arena index (internal alias).
            pub(crate) fn from_index(i: usize) -> Self {
                Self::new(i)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A host (end node with a single full-duplex NIC).
    HostId,
    "h"
);
id_type!(
    /// A switch (store-and-forward, shared buffer pool).
    SwitchId,
    "sw"
);
id_type!(
    /// A directed transmitter: one direction of one link, with its own
    /// serialization state and queue accounting.
    TxId,
    "tx"
);
id_type!(
    /// A buffer pool shared by one or more transmitters (a switch's shared
    /// memory, or a host NIC's socket buffer).
    PoolId,
    "pool"
);
id_type!(
    /// A unidirectional transport connection between two hosts.
    ConnId,
    "conn"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_display() {
        let h = HostId::from_index(3);
        assert_eq!(h.index(), 3);
        assert_eq!(h.to_string(), "h3");
        assert_eq!(ConnId::from_index(0).to_string(), "conn0");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(TxId::from_index(1) < TxId::from_index(2));
    }
}
