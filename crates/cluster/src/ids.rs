//! Typed identifiers for cluster entities.
//!
//! Newtype IDs keep node, container, service, and request handles from
//! being confused with one another at compile time. IDs are dense small
//! integers allocated by the [`Cluster`](crate::Cluster); they are never
//! reused within a run.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// Returns the raw index.
            pub const fn index(self) -> u32 {
                self.0
            }

            /// Returns the raw index as `usize`, for vector indexing.
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of a physical node (machine) in the cluster.
    NodeId,
    "node-"
);
id_type!(
    /// Identifier of a container (one replica of one microservice).
    ContainerId,
    "ctr-"
);
id_type!(
    /// Identifier of a microservice (a scaling group of replicas).
    ServiceId,
    "svc-"
);

/// Identifier of a single client request.
///
/// Requests are numerous, so this is the only 64-bit ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates an identifier from its raw index.
    pub const fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// Returns the raw index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Monotonic ID allocator used by the cluster for each entity class.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// The next id this allocator would hand out (snapshot support).
    pub(crate) fn cursor(&self) -> u64 {
        self.next
    }

    /// Restores the allocation cursor from a snapshot. The allocator
    /// resumes exactly where the snapshotted one stopped, so no id is
    /// ever reissued across a restore.
    pub(crate) fn set_cursor(&mut self, next: u64) {
        self.next = next;
    }

    pub(crate) fn next_u32(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        u32::try_from(id).expect("more than u32::MAX entities allocated")
    }

    /// Reserves `n` consecutive ids, returning the first. Cohort members
    /// keep dense per-request identities without per-member allocation.
    pub(crate) fn next_range(&mut self, n: u64) -> u64 {
        let id = self.next;
        self.next = self
            .next
            .checked_add(n)
            .expect("request id space exhausted");
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "node-3");
        assert_eq!(ContainerId::new(0).to_string(), "ctr-0");
        assert_eq!(ServiceId::new(7).to_string(), "svc-7");
        assert_eq!(RequestId::new(9).to_string(), "req-9");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just check round-trips.
        assert_eq!(NodeId::new(5).index(), 5);
        assert_eq!(NodeId::new(5).as_usize(), 5usize);
        assert_eq!(u32::from(ServiceId::new(2)), 2);
        assert_eq!(RequestId::new(u64::MAX).index(), u64::MAX);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = IdAllocator::default();
        assert_eq!(alloc.next_u32(), 0);
        assert_eq!(alloc.next_u32(), 1);
        assert_eq!(alloc.next_range(3), 2);
        assert_eq!(alloc.next_u32(), 5);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ContainerId::new(1));
        set.insert(ContainerId::new(1));
        set.insert(ContainerId::new(2));
        assert_eq!(set.len(), 2);
        assert!(ContainerId::new(1) < ContainerId::new(2));
    }
}
