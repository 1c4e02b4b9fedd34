//! Randomized-but-deterministic property tests for the relational
//! substrate.
//!
//! Originally written with `proptest`; this offline workspace replaces
//! the strategy machinery with a seeded value sampler over the same
//! domain (all six `Value` variants, including NULLs, negative floats,
//! and non-ASCII strings), so every case reproduces exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipper_relational::expr::{CmpOp, Expr};
use skipper_relational::ops::scan;
use skipper_relational::schema::{DataType, Schema};
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;

/// Draws one arbitrary scalar (join-key-compatible subset, matching the
/// old proptest strategy).
fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen::<i64>()),
        3 => Value::Float(rng.gen_range(-1e12f64..1e12)),
        4 => Value::str(&arb_string(rng, 12)),
        _ => Value::Date(rng.gen::<i32>()),
    }
}

/// A 0..=max_len string mixing ASCII and multi-byte code points.
fn arb_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => rng.gen_range('a'..='z'),
            1 => rng.gen_range('A'..='Z'),
            2 => rng.gen_range('0'..='9'),
            _ => ['é', 'ß', '中', '🦀', ' ', '-'][rng.gen_range(0..6usize)],
        })
        .collect()
}

/// The value ordering is a total order: antisymmetric, transitive, and
/// Eq-consistent (required for BTreeMap keys and sort stability).
#[test]
fn value_total_order_laws() {
    use std::cmp::Ordering;
    let mut rng = StdRng::seed_from_u64(0x0101);
    for _ in 0..2000 {
        let (a, b, c) = (
            arb_value(&mut rng),
            arb_value(&mut rng),
            arb_value(&mut rng),
        );
        // Antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => {
                assert_eq!(b.cmp(&a), Ordering::Equal);
                assert_eq!(&a, &b);
            }
        }
        // Transitivity (≤).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater, "{a:?} ≤ {b:?} ≤ {c:?}");
        }
    }
}

/// A one-row segment holding `values`, each column typed by its value
/// (a NULL sits in an integer column).
fn one_row(values: Vec<Value>) -> Segment {
    let names: Vec<String> = (0..values.len()).map(|i| format!("c{i}")).collect();
    let fields: Vec<(&str, DataType)> = values
        .iter()
        .zip(&names)
        .map(|(v, n)| {
            let dtype = match v {
                Value::Bool(_) => DataType::Bool,
                Value::Float(_) => DataType::Float,
                Value::Str(_) => DataType::Str,
                Value::Date(_) => DataType::Date,
                Value::Int(_) | Value::Null => DataType::Int,
            };
            (n.as_str(), dtype)
        })
        .collect();
    Segment::new(Schema::of(&fields), vec![Row::new(values)]).unwrap()
}

/// A number near one of the places where `as f64` rounds or a sign
/// flips, as an integer, a float or a date.
fn arb_numeric(rng: &mut StdRng) -> Value {
    const TWO_53: i64 = 1 << 53;
    let bases = [
        0,
        1,
        -1,
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        TWO_53 + 2,
        -TWO_53 - 1,
        i64::MAX,
        i64::MIN,
        i64::MAX - 512,
    ];
    let base = bases[rng.gen_range(0..bases.len())];
    match rng.gen_range(0..7u32) {
        0 | 1 => Value::Int(base),
        2 => Value::Float(base as f64),
        3 => Value::Float(base as f64 + 0.5),
        4 => Value::Float(if rng.gen_bool(0.5) { -0.0 } else { 0.0 }),
        5 => Value::Date(base.clamp(i32::MIN as i64, i32::MAX as i64) as i32),
        _ => Value::Float(f64::NAN),
    }
}

fn fx_hash(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = skipper_relational::hash::FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// `a == b ⇒ hash(a) == hash(b)`, and equality and order stay
/// transitive over integers, floats and dates mixed — including the
/// integers that `as f64` would round onto their neighbours.
#[test]
fn mixed_numeric_equality_is_transitive_and_hash_consistent() {
    use std::cmp::Ordering;
    let mut rng = StdRng::seed_from_u64(0x0606);
    for _ in 0..20_000 {
        let (a, b, c) = (
            arb_numeric(&mut rng),
            arb_numeric(&mut rng),
            arb_numeric(&mut rng),
        );
        if a == b {
            assert_eq!(fx_hash(&a), fx_hash(&b), "{a:?} == {b:?}");
        }
        if a == b && b == c {
            assert_eq!(a, c, "{a:?} == {b:?} == {c:?}");
        }
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater, "{a:?} ≤ {b:?} ≤ {c:?}");
        }
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "{a:?} vs {b:?}");
    }
}

/// Column-at-a-time filtering ([`scan::select`]) keeps exactly the rows
/// that row-at-a-time evaluation ([`Expr::matches`]) accepts, for every
/// predicate shape, with and without NULLs, and for literals of the
/// column's type or another.
#[test]
fn retain_agrees_with_row_at_a_time_evaluation() {
    let mut rng = StdRng::seed_from_u64(0x0707);
    let schema = Schema::of(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("s", DataType::Str),
        ("d2", DataType::Date),
    ]);
    let words = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK"];
    for case in 0..300 {
        let null_p = if case % 2 == 0 { 0.0 } else { 0.1 };
        let rows: Vec<Row> = (0..rng.gen_range(0..60usize))
            .map(|_| {
                let values = [
                    Value::Int(rng.gen_range(-5..5i64)),
                    Value::Float(rng.gen_range(-3..3i64) as f64 / 2.0),
                    Value::Date(rng.gen_range(0..10)),
                    Value::str(words[rng.gen_range(0..words.len())]),
                    Value::Date(rng.gen_range(0..10)),
                ];
                Row::new(
                    values
                        .into_iter()
                        .map(|v| if rng.gen_bool(null_p) { Value::Null } else { v })
                        .collect(),
                )
            })
            .collect();
        let seg = Segment::new(schema.clone(), rows).unwrap();
        let lit = |rng: &mut StdRng, col: usize| match (col, rng.gen_range(0..5u32)) {
            (_, 0) => Value::Int(rng.gen_range(-5..5i64)),
            (_, 1) => Value::Null,
            (0, _) => Value::Int(rng.gen_range(-5..5i64)),
            (1, _) => Value::Float(rng.gen_range(-3..3i64) as f64 / 2.0),
            (3, _) => Value::str(words[rng.gen_range(0..words.len())]),
            _ => Value::Date(rng.gen_range(0..10)),
        };
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let atom = |rng: &mut StdRng| {
            let col = rng.gen_range(0..5usize);
            let op = ops[rng.gen_range(0..ops.len())];
            match rng.gen_range(0..5u32) {
                0 => Expr::Cmp(
                    op,
                    Box::new(Expr::col(col)),
                    Box::new(Expr::lit(lit(rng, col))),
                ),
                1 => Expr::Cmp(
                    op,
                    Box::new(Expr::lit(lit(rng, col))),
                    Box::new(Expr::col(col)),
                ),
                2 => Expr::Cmp(op, Box::new(Expr::col(2)), Box::new(Expr::col(col))),
                3 => Expr::col(col).between(lit(rng, col), lit(rng, col)),
                _ => Expr::col(col)
                    .in_list((0..rng.gen_range(0..3)).map(|_| lit(rng, col)).collect()),
            }
        };
        // Shapes without a typed loop even on NULL-free columns: a
        // literal operand sends them to the row-at-a-time fallback.
        let fallback = |rng: &mut StdRng| {
            let col = rng.gen_range(0..5usize);
            let operand = Expr::lit(lit(rng, col));
            match rng.gen_range(0..3u32) {
                0 => Expr::Cmp(
                    ops[rng.gen_range(0..ops.len())],
                    Box::new(operand),
                    Box::new(Expr::lit(lit(rng, col))),
                ),
                1 => operand.between(lit(rng, col), lit(rng, col)),
                _ => operand.in_list((0..rng.gen_range(0..3)).map(|_| lit(rng, col)).collect()),
            }
        };
        let pred = match rng.gen_range(0..4u32) {
            0 => atom(&mut rng),
            1 => atom(&mut rng).and(atom(&mut rng)).and(atom(&mut rng)),
            2 => fallback(&mut rng),
            _ => atom(&mut rng).and(fallback(&mut rng)),
        };
        let sel = scan::select(&seg, Some(&pred));
        let expected: Vec<u32> = (0..seg.len() as u32)
            .filter(|&p| pred.matches(seg.row(p as usize)))
            .collect();
        assert_eq!(sel, expected, "case {case}: {pred}");
    }
}

/// Hash/Eq consistency: equal values hash identically (spot-checked
/// through a real map).
#[test]
fn equal_values_collide_in_maps() {
    use skipper_relational::hash::FxHashMap;
    let mut rng = StdRng::seed_from_u64(0x0202);
    for _ in 0..500 {
        let v = arb_value(&mut rng);
        let mut m: FxHashMap<Value, u8> = FxHashMap::default();
        m.insert(v.clone(), 1);
        assert_eq!(m.get(&v), Some(&1));
    }
}

/// The segment codec round-trips arbitrary well-typed rows.
#[test]
fn codec_roundtrips_arbitrary_rows() {
    let mut rng = StdRng::seed_from_u64(0x0303);
    for _ in 0..200 {
        let n = rng.gen_range(0..40usize);
        let schema = Schema::of(&[("i", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.gen::<i64>()),
                    Value::str(&arb_string(&mut rng, 24)),
                ])
            })
            .collect();
        let seg = Segment::new(schema.clone(), rows).unwrap();
        let back = Segment::decode(&schema, seg.encode()).unwrap();
        assert_eq!(seg, back);
    }
}

/// Comparison operators agree with the value ordering, and NULL
/// comparisons are always false (SQL semantics).
#[test]
fn cmp_ops_agree_with_ordering() {
    let mut rng = StdRng::seed_from_u64(0x0404);
    for _ in 0..2000 {
        let (a, b) = (arb_value(&mut rng), arb_value(&mut rng));
        let seg = one_row(vec![a.clone(), b.clone()]);
        let test = |op: CmpOp| {
            Expr::Cmp(op, Box::new(Expr::col(0)), Box::new(Expr::col(1))).matches(seg.row(0))
        };
        if a.is_null() || b.is_null() {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                assert!(!test(op), "NULL comparison must be false");
            }
        } else {
            assert_eq!(test(CmpOp::Eq), a == b);
            assert_eq!(test(CmpOp::Lt), a < b);
            assert_eq!(test(CmpOp::Le), a <= b);
            assert_eq!(test(CmpOp::Gt), a > b);
            assert_eq!(test(CmpOp::Ge), a >= b);
        }
    }
}

/// IN-list membership matches naive scanning.
#[test]
fn in_list_matches_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x0505);
    for _ in 0..500 {
        // A small key domain makes hits common; occasional full-domain
        // needles exercise the miss path.
        let needle = if rng.gen_bool(0.8) {
            rng.gen_range(-8..8i64)
        } else {
            rng.gen::<i64>()
        };
        let n = rng.gen_range(0..16usize);
        let list: Vec<i64> = (0..n).map(|_| rng.gen_range(-8..8i64)).collect();
        let seg = one_row(vec![Value::Int(needle)]);
        let expr = Expr::col(0).in_list(list.iter().map(|&v| Value::Int(v)).collect());
        assert_eq!(expr.matches(seg.row(0)), list.contains(&needle));
    }
}
