//! A lightweight named-counter registry.
//!
//! Every layer of the stack (pipeline, speculation policy, hardware
//! metadata caches, kernel allocators) exports its counters into one
//! [`MetricsRegistry`] under dotted names (`"isv_cache.hits"`,
//! `"slab.page_frees"`, ...). The registry is an ordered map, so
//! iteration — and therefore every serialized form — is deterministic:
//! two runs that count the same things render byte-identically whatever
//! the thread count or insertion order.

use std::collections::BTreeMap;

/// An ordered collection of named `u64` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `name` to `value` (overwrites).
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Add `value` to `name` (starting from zero).
    pub fn add(&mut self, name: impl Into<String>, value: u64) {
        *self.counters.entry(name.into()).or_insert(0) += value;
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterate counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merge another registry in (other's values overwrite on collision).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in other.iter() {
            self.counters.insert(k.to_string(), v);
        }
    }
}

/// Implemented by components that can export their counters under a
/// name prefix (`"<prefix>.<counter>"`).
pub trait MetricsSource {
    /// Write this component's counters into `reg` under `prefix`.
    fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry);
}

/// A struct of `u64` counters described by one list of its counters (see
/// [`counters!`](crate::counters)). Export, region-of-interest deltas
/// and the rebuild from a registry all walk that list, so a counter on
/// it reaches all three, and one left off reaches none.
pub trait Counters: Copy + Default {
    /// Call `f` with each counter's registry name (`name` followed by
    /// `.<counter>`; nested structs add their own segment), the counter
    /// in `self` and the same counter in `other`. `name` is unchanged on
    /// return.
    fn visit(&mut self, other: &Self, name: &mut String, f: &mut dyn FnMut(&str, &mut u64, u64));

    /// Set `{prefix}.<counter>` for every counter.
    fn export_counters(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let mut name = prefix.to_string();
        let mut copy = *self;
        copy.visit(self, &mut name, &mut |name, _, v| reg.set(name, v));
    }

    /// Counterwise difference (for region-of-interest measurement).
    fn counters_since(&self, earlier: &Self) -> Self {
        let mut delta = *self;
        delta.visit(earlier, &mut String::new(), &mut |_, v, e| *v -= e);
        delta
    }

    /// The sum of every counter.
    fn counter_sum(&self) -> u64 {
        let mut sum = 0;
        let mut copy = *self;
        copy.visit(self, &mut String::new(), &mut |_, _, v| sum += v);
        sum
    }

    /// Rebuild from the counters `reg` holds under `prefix`: `Ok(None)`
    /// when it holds none of them, and `Err` naming the first one missing
    /// when it holds only some.
    fn from_registry(reg: &MetricsRegistry, prefix: &str) -> Result<Option<Self>, String> {
        let mut out = Self::default();
        let (mut found, mut missing) = (false, None);
        out.visit(
            &Self::default(),
            &mut prefix.to_string(),
            &mut |name, v, _| match reg.get(name) {
                Some(n) => {
                    *v = n;
                    found = true;
                }
                None => {
                    missing.get_or_insert_with(|| name.to_string());
                }
            },
        );
        match (found, missing) {
            (false, _) => Ok(None),
            (true, None) => Ok(Some(out)),
            (true, Some(name)) => Err(format!("the registry lacks counter {name:?}")),
        }
    }
}

/// Implement [`Counters`] and [`MetricsSource`] for a struct from the one
/// list of its counters: each `u64` field, exported under its own name,
/// then, after a `;`, each nested [`Counters`] struct as
/// `segment: field`, exported below `<prefix>.<segment>`.
///
/// ```
/// #[derive(Clone, Copy, Default)]
/// struct Inner { hits: u64 }
/// #[derive(Clone, Copy, Default)]
/// struct Outer { cycles: u64, inner: Inner }
/// persp_uarch::counters!(Inner { hits });
/// persp_uarch::counters!(Outer { cycles; sub: inner });
///
/// use persp_uarch::{MetricsRegistry, MetricsSource};
/// let mut reg = MetricsRegistry::new();
/// Outer { cycles: 3, inner: Inner { hits: 2 } }.export_metrics("sim", &mut reg);
/// assert_eq!(reg.get("sim.cycles"), Some(3));
/// assert_eq!(reg.get("sim.sub.hits"), Some(2));
/// ```
#[macro_export]
macro_rules! counters {
    ($ty:ty { $($field:ident),* $(,)? $(; $($segment:ident: $group:ident),+ $(,)?)? }) => {
        impl $crate::metrics::Counters for $ty {
            fn visit(
                &mut self,
                other: &Self,
                name: &mut String,
                f: &mut dyn FnMut(&str, &mut u64, u64),
            ) {
                let len = name.len();
                $(
                    name.push_str(concat!(".", stringify!($field)));
                    f(name, &mut self.$field, other.$field);
                    name.truncate(len);
                )*
                $($(
                    name.push_str(concat!(".", stringify!($segment)));
                    self.$group.visit(&other.$group, name, f);
                    name.truncate(len);
                )+)?
            }
        }

        impl $crate::metrics::MetricsSource for $ty {
            fn export_metrics(&self, prefix: &str, reg: &mut $crate::metrics::MetricsRegistry) {
                $crate::metrics::Counters::export_counters(self, prefix, reg);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_get() {
        let mut r = MetricsRegistry::new();
        r.set("a.x", 3);
        r.add("a.x", 2);
        r.add("a.y", 1);
        assert_eq!(r.get("a.x"), Some(5));
        assert_eq!(r.get("a.y"), Some(1));
        assert_eq!(r.get("a.z"), None);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn iteration_is_name_ordered_regardless_of_insertion() {
        let mut r1 = MetricsRegistry::new();
        r1.set("b", 2);
        r1.set("a", 1);
        r1.set("c", 3);
        let mut r2 = MetricsRegistry::new();
        r2.set("c", 3);
        r2.set("a", 1);
        r2.set("b", 2);
        let k1: Vec<_> = r1.iter().collect();
        let k2: Vec<_> = r2.iter().collect();
        assert_eq!(k1, k2);
        assert_eq!(k1[0].0, "a");
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }

    #[test]
    fn merge_overwrites_on_collision() {
        let mut r1 = MetricsRegistry::new();
        r1.set("x", 1);
        r1.set("y", 2);
        let mut r2 = MetricsRegistry::new();
        r2.set("y", 20);
        r2.set("z", 30);
        r1.merge(&r2);
        assert_eq!(r1.get("x"), Some(1));
        assert_eq!(r1.get("y"), Some(20));
        assert_eq!(r1.get("z"), Some(30));
    }
}
