//! The JSON byte contract every digest in the repository rests on.
//!
//! Golden digests (the 100k/1M/2k scale goldens, the chaos and
//! verify-determinism digests, the benchmark's pinned cohort digests)
//! are FNV-1a over the vendored serde shim's compact JSON. These tests
//! pin those bytes literally for the ledger's record shapes, and pin
//! that the two sinks of the streaming serializer agree: rendering a
//! value directly and rendering the `Value` tree built from it must give
//! the same text, compact and pretty, for every shape the derive
//! supports.

use ml_ops_course::experiments::digest::{fnv1a64, fnv1a64_json, Fnv64};
use ml_ops_course::simkernel::SimTime;
use ml_ops_course::testbed::flavor::FlavorId;
use ml_ops_course::testbed::ledger::{Ledger, UsageKind, UsageRecord};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

fn record(name: &str, kind: UsageKind, start: u64, end: u64) -> UsageRecord {
    UsageRecord {
        name: name.to_string(),
        kind,
        start: SimTime(start),
        end: SimTime(end),
    }
}

fn compact<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn pretty<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializes")
}

/// Direct rendering and tree rendering agree in both modes; returns
/// the compact text.
fn same_through_the_tree<T: Serialize + ?Sized>(value: &T) -> String {
    let tree = serde_json::to_value(value);
    assert_eq!(compact(value), compact(&tree), "compact: direct vs tree");
    assert_eq!(pretty(value), pretty(&tree), "pretty: direct vs tree");
    compact(value)
}

#[test]
fn usage_records_serialize_to_the_pinned_bytes() {
    let cases = [
        (
            record(
                "lab1-s000",
                UsageKind::Instance {
                    flavor: FlavorId::M1Small,
                    auto_terminated: false,
                },
                3090,
                3325,
            ),
            r#"{"name":"lab1-s000","kind":{"Instance":{"flavor":"M1Small","auto_terminated":false}},"start":3090,"end":3325}"#,
        ),
        (
            record("lab1-s000", UsageKind::FloatingIp, 3090, 3325),
            r#"{"name":"lab1-s000","kind":"FloatingIp","start":3090,"end":3325}"#,
        ),
        (
            record(
                "lab3-g007-vol",
                UsageKind::Volume { size_gb: 100 },
                0,
                20160,
            ),
            r#"{"name":"lab3-g007-vol","kind":{"Volume":{"size_gb":100}},"start":0,"end":20160}"#,
        ),
        (
            record("proj-g001", UsageKind::ObjectStorage { gb: 5.0 }, 10, 20),
            r#"{"name":"proj-g001","kind":{"ObjectStorage":{"gb":5.0}},"start":10,"end":20}"#,
        ),
        (
            record("proj-g001", UsageKind::ObjectStorage { gb: 0.125 }, 10, 20),
            r#"{"name":"proj-g001","kind":{"ObjectStorage":{"gb":0.125}},"start":10,"end":20}"#,
        ),
        (
            record(
                "lab\"2\\s\n\t\u{1}é",
                UsageKind::Instance {
                    flavor: FlavorId::GpuA100Pcie,
                    auto_terminated: true,
                },
                1,
                2,
            ),
            r#"{"name":"lab\"2\\s\n\t\u0001é","kind":{"Instance":{"flavor":"GpuA100Pcie","auto_terminated":true}},"start":1,"end":2}"#,
        ),
    ];
    for (rec, want) in &cases {
        assert_eq!(compact(rec), *want);
        assert_eq!(same_through_the_tree(rec), *want);
        // Hashing while serializing sees exactly these bytes.
        assert_eq!(fnv1a64_json(rec), fnv1a64(want.as_bytes()));
    }
    assert_eq!(
        pretty(&cases[1].0),
        "{\n  \"name\": \"lab1-s000\",\n  \"kind\": \"FloatingIp\",\n  \"start\": 3090,\n  \"end\": 3325\n}"
    );

    // The ledger envelope the outcome digest opens and closes by hand.
    let mut ledger = Ledger::new();
    assert_eq!(compact(&ledger), r#"{"records":[]}"#);
    assert_eq!(pretty(&ledger), "{\n  \"records\": []\n}");
    for (rec, _) in &cases[..2] {
        ledger.push(rec.clone());
    }
    let want = format!(r#"{{"records":[{},{}]}}"#, cases[0].1, cases[1].1);
    assert_eq!(same_through_the_tree(&ledger), want);
    let mut hash = Fnv64::new();
    hash.write_json(&ledger);
    assert_eq!(hash.finish(), fnv1a64(want.as_bytes()));
}

#[derive(Serialize)]
struct Named {
    id: u32,
    #[serde(skip)]
    #[allow(dead_code)]
    scratch: Vec<u8>,
    label: String,
    ratio: f64,
    maybe: Option<i64>,
    nothing: Option<bool>,
}

#[derive(Serialize)]
struct Newtype(u64);

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
enum Shape {
    Plain,
    Wrapped(Newtype),
    Triple(u8, bool, Unit),
    Fields {
        w: u16,
        #[serde(skip)]
        #[allow(dead_code)]
        hidden: u8,
        tags: Vec<String>,
    },
}

#[test]
fn every_derive_shape_renders_the_same_through_the_tree() {
    let named = Named {
        id: 7,
        scratch: vec![1, 2, 3],
        label: "a\"b".into(),
        ratio: 2.0,
        maybe: Some(-3),
        nothing: None,
    };
    assert_eq!(
        same_through_the_tree(&named),
        r#"{"id":7,"label":"a\"b","ratio":2.0,"maybe":-3,"nothing":null}"#
    );
    assert_eq!(same_through_the_tree(&Newtype(9)), "9");
    assert_eq!(same_through_the_tree(&Pair(-1, "x".into())), r#"[-1,"x"]"#);
    assert_eq!(same_through_the_tree(&Unit), "null");

    let shapes = vec![
        Shape::Plain,
        Shape::Wrapped(Newtype(4)),
        Shape::Triple(1, false, Unit),
        Shape::Fields {
            w: 3,
            hidden: 0,
            tags: vec![],
        },
    ];
    assert_eq!(
        same_through_the_tree(&shapes),
        r#"["Plain",{"Wrapped":4},{"Triple":[1,false,null]},{"Fields":{"w":3,"tags":[]}}]"#
    );
    assert_eq!(
        pretty(&shapes[3]),
        "{\n  \"Fields\": {\n    \"w\": 3,\n    \"tags\": []\n  }\n}"
    );
}

#[test]
fn maps_sort_keys_and_empty_containers_stay_closed() {
    let hashed: HashMap<String, Vec<u8>> = [
        ("zeta".to_string(), vec![1]),
        ("alpha".to_string(), vec![]),
        ("mid".to_string(), vec![2, 3]),
    ]
    .into();
    assert_eq!(
        same_through_the_tree(&hashed),
        r#"{"alpha":[],"mid":[2,3],"zeta":[1]}"#
    );
    let numbered: HashMap<u32, ()> = [(10, ()), (9, ()), (100, ())].into();
    assert_eq!(
        same_through_the_tree(&numbered),
        r#"{"9":null,"10":null,"100":null}"#
    );
    let empty: BTreeMap<String, Vec<Option<u8>>> = BTreeMap::new();
    assert_eq!(same_through_the_tree(&empty), "{}");
    assert_eq!(pretty(&empty), "{}");
    let nested: BTreeMap<&str, BTreeMap<&str, Vec<u8>>> =
        [("outer", [("inner", vec![])].into())].into();
    assert_eq!(
        pretty(&nested),
        "{\n  \"outer\": {\n    \"inner\": []\n  }\n}"
    );
    same_through_the_tree(&nested);
}
