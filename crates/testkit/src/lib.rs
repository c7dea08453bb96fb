//! Seeded cases for the workspace's property tests.  A property is a plain
//! `#[test]` that hands [`check`] its [`name!`], its case count and a
//! closure that draws its arguments from an [`Rng`], in declaration order,
//! before it asserts on them.  A hash of the name seeds one splitmix64
//! stream, and the cases draw from it one after another, so each run draws
//! the same cases.  A failing case's panic names the property, the case and
//! the generator state it started from, so the case can be replayed alone.
//! There is no shrinking.

#![warn(missing_docs)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    /// Where the next draw starts: `Rng { state }` from a failure message
    /// replays that case.
    pub state: u64,
}

impl Rng {
    /// FNV-1a over `name`, with the multiplier the stand-in used (FNV's
    /// 64-bit prime is `0x100_0000_01b3`), so every property keeps its cases.
    fn seeded(name: &str) -> Rng {
        let fnv = |hash: u64, byte: u8| (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        Rng {
            state: name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv),
        }
    }

    /// The next 64 bits: an arbitrary `u64` or `usize`, or an `f64`'s bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.state ^ (self.state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `range`: its start plus one draw modulo its span.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        range.start + (self.next_u64() % (range.end - range.start) as u64) as usize
    }

    /// A value in `[0, 1)` from one draw's top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A vector: its length drawn from `len`, then each element by `draw`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let len = self.range(len);
        (0..len).map(|_| draw(self)).collect()
    }

    /// A value from one of `arms`: the arm is drawn first, then the value.
    pub fn one_of(&mut self, arms: &[Range<usize>]) -> usize {
        let arm = self.range(0..arms.len());
        self.range(arms[arm].clone())
    }
}

/// The path of the enclosing function, `module_path!()` and its name: the
/// name a property passes to [`check`].  It is read from the type name of
/// a nested fn, whose form `a_property_is_named_by_its_path` pins.
#[macro_export]
macro_rules! name {
    () => {{
        fn here() {}
        let path = ::std::any::type_name_of_val(&here);
        &path[..path.len() - "::here".len()]
    }};
}

/// Run `case` `cases` times on the one stream the property `name` seeds.
pub fn check(name: &str, cases: u32, mut case: impl FnMut(&mut Rng)) {
    let mut rng = Rng::seeded(name);
    for index in 0..cases {
        let state = rng.state;
        if catch_unwind(AssertUnwindSafe(|| case(&mut rng))).is_err() {
            panic!(
                "{name}: case {index} of {cases} failed; Rng {{ state: {state:#x} }} replays it"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The expected values are the draws the property-test stand-in this
    // crate replaced made for the same names, read before it was deleted.

    /// The first `n` draws of the stream `name` seeds, read by `draw`.
    fn draws<T>(name: &str, n: usize, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let mut rng = Rng::seeded(name);
        (0..n).map(|_| draw(&mut rng)).collect()
    }

    #[test]
    fn a_name_seeds_a_splitmix64_stream() {
        assert_eq!(Rng::seeded("seeded").state, 0xb84a_1bbe_5ffe_309d);
        let expected = [
            11706093947318678038,
            1515269313736322115,
            8248459747335676093,
        ];
        assert_eq!(draws("seeded", 3, Rng::next_u64), expected);
    }

    #[test]
    fn sampling_is_deterministic_per_name() {
        let stream = |name| draws(name, 8, Rng::next_u64);
        assert_eq!(stream("seeded"), stream("seeded"));
        assert_ne!(stream("seeded"), stream("seeded2"));
    }

    #[test]
    fn a_range_draws_its_start_plus_one_draw_modulo_its_span() {
        assert_eq!(
            draws("range", 6, |r| r.range(10..20)),
            [15, 16, 16, 12, 12, 17]
        );
        let bits = draws("range", 6, Rng::next_u64);
        let by_rule: Vec<usize> = bits.iter().map(|b| 10 + (b % 10) as usize).collect();
        assert_eq!(draws("range", 6, |r| r.range(10..20)), by_rule);
    }

    #[test]
    fn an_f64_is_one_draws_bits() {
        let expected = [
            11198288295241822746,
            4804644597107146437,
            12579773290837348302,
        ];
        let bits = draws("f64", 3, |r| f64::from_bits(r.next_u64()).to_bits());
        assert_eq!(bits, expected);
    }

    #[test]
    fn a_float_range_scales_one_draws_top_53_bits() {
        let floats = draws("unit", 3, |r| -1.0e6 + r.unit() * 2.0e6);
        let expected = [-351993.3362516345, -838431.8033530822, 708791.2624677783];
        assert_eq!(floats, expected);
        assert!(draws("unit", 1000, Rng::unit)
            .iter()
            .all(|u| (0.0..1.0).contains(u)));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seeded("bounds");
        for _ in 0..1000 {
            assert!((10..20).contains(&rng.range(10..20)));
            assert!((-2.0..3.0).contains(&(-2.0 + rng.unit() * 5.0)));
        }
    }

    #[test]
    fn a_vec_draws_its_length_then_its_elements() {
        let vecs = draws("vec", 3, |r| r.vec(0..5, |r| r.range(0..100)));
        assert_eq!(vecs, [vec![98], vec![63, 25, 15, 81], vec![25]]);
    }

    #[test]
    fn a_one_of_draws_its_arm_then_that_arms_value() {
        let arms = [0..10, 100..110, 1000..1010];
        let picks = draws("one_of", 6, |r| r.one_of(&arms));
        assert_eq!(picks, [1005, 9, 1006, 106, 1008, 9]);
    }

    #[test]
    fn each_case_draws_its_arguments_in_declaration_order() {
        let mut cases = Vec::new();
        check("stand_in::cases_draw_in_order", 3, |rng| {
            let a = rng.range(0..10);
            let v = rng.vec(0..3, Rng::next_u64);
            cases.push((a, v, rng.next_u64()));
        });
        let expected = [
            (
                5,
                vec![16630879969592491632, 12261396120562411306],
                15363288141463987853,
            ),
            (3, vec![], 8003982146294849331),
            (
                9,
                vec![5414240319959997802, 667798759728941739],
                8276236608169748484,
            ),
        ];
        assert_eq!(cases, expected);
    }

    #[test]
    fn macro_samples_all_arguments() {
        let mut cases = 0;
        check(name!(), 16, |rng| {
            let a = rng.range(0..10);
            let b = rng.one_of(&[100..200, 300..400]);
            let v = rng.vec(0..8, |r| r.next_u64() as u8);
            assert!(a < 10);
            assert!((100..200).contains(&b) || (300..400).contains(&b));
            assert!(v.len() < 8);
            cases += 1;
        });
        assert_eq!(cases, 16);
    }

    #[test]
    fn a_failing_case_names_the_property_the_case_and_its_start_state() {
        let mut starts = Vec::new();
        let mut draws = Vec::new();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            check("fails", 4, |rng| {
                starts.push(rng.state);
                draws.push(rng.next_u64());
                assert!(starts.len() < 3);
            })
        }));
        let message = *failed.unwrap_err().downcast::<String>().unwrap();
        let start = starts[2];
        let expected = format!("fails: case 2 of 4 failed; Rng {{ state: {start:#x} }} replays it");
        assert_eq!(message, expected);
        assert_eq!(Rng { state: start }.next_u64(), draws[2]);
    }

    #[test]
    fn a_property_is_named_by_its_path() {
        let expected = concat!(module_path!(), "::a_property_is_named_by_its_path");
        assert_eq!(name!(), expected);
    }
}
