//! The flat set-associative array: set slicing, index/tag split, the
//! one LRU victim rule and the geometry checks.

use persp_mem::setassoc::{SetAssoc, Way};

#[derive(Debug, Clone, Copy, PartialEq)]
struct E {
    valid: bool,
    lru: u64,
}

impl Way for E {
    fn valid(&self) -> bool {
        self.valid
    }
    fn lru(&self) -> u64 {
        self.lru
    }
}

const EMPTY: E = E {
    valid: false,
    lru: 0,
};

fn live(lru: u64) -> E {
    E { valid: true, lru }
}

#[test]
fn sets_are_disjoint_slices_of_one_array() {
    let mut a = SetAssoc::new(4, 3, EMPTY);
    a.set_mut(2)[1] = live(7);
    assert_eq!(a.set(2), &[EMPTY, live(7), EMPTY]);
    for i in [0, 1, 3] {
        assert_eq!(a.set(i), &[EMPTY; 3], "set {i}");
    }
    assert_eq!(a.iter_mut().count(), 12);
    assert_eq!(a.find(2, |e| e.lru == 7), Some(&mut live(7)));
    assert_eq!(a.find(2, |e| e.lru == 0), None, "invalid ways never match");
    assert_eq!(a.find(1, |_| true), None);
}

#[test]
fn locate_splits_index_and_tag() {
    let a = SetAssoc::new(8, 2, EMPTY);
    assert_eq!(a.locate((0b1011 << 3) | 0b101), (0b101, 0b1011));
}

#[test]
fn victim_prefers_the_first_invalid_way() {
    let mut a = SetAssoc::new(1, 4, EMPTY);
    a.set_mut(0)
        .copy_from_slice(&[live(1), EMPTY, live(2), EMPTY]);
    *a.victim(0) = live(9);
    assert_eq!(a.set(0), &[live(1), live(9), live(2), EMPTY]);
}

#[test]
fn victim_of_a_full_set_is_the_first_lowest_stamp() {
    let mut a = SetAssoc::new(1, 4, EMPTY);
    a.set_mut(0)
        .copy_from_slice(&[live(5), live(3), live(3), live(4)]);
    *a.victim(0) = live(9);
    assert_eq!(a.set(0), &[live(5), live(9), live(3), live(4)]);
}

#[test]
#[should_panic(expected = "set count must be a power of two")]
fn rejects_a_set_count_that_is_not_a_power_of_two() {
    SetAssoc::new(3, 2, EMPTY);
}

#[test]
#[should_panic(expected = "a set needs at least one way")]
fn rejects_zero_ways() {
    SetAssoc::new(4, 0, EMPTY);
}
