//! The benchmark's own self-test: every metric `BENCHMARK.json` names
//! is printed, with its unit, by each workload run at a tiny size, and
//! every name is made of `[A-Za-z0-9_.-]`.

use std::collections::BTreeMap;
use std::path::Path;

use dam_perfbench::workload::{Scale, Workload};
use dam_perfbench::{run, Options};

/// A JSON value, as far as this test needs one.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected '{}' at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used by the benchmark");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number '{text}'")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key '{key}'")),
        _ => panic!("not an object looking up '{key}'"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = field(spec, section) else { panic!("{section} is not an array") };
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
            _ => panic!("metric without a string name and unit"),
        })
        .collect()
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark"))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn declared_names_fit_the_alphabet() {
    let spec = spec();
    let mut seen = std::collections::BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&spec, section) {
            assert!(valid_name(&name), "bad metric name '{name}'");
            assert!(!unit.is_empty(), "metric '{name}' has no unit");
            assert!(seen.insert(name.clone()), "metric '{name}' declared twice");
        }
    }
    let Json::Arr(workloads) = field(&spec, "workloads") else { panic!("workloads") };
    let names: Vec<String> = workloads
        .iter()
        .map(|w| match field(w, "name") {
            Json::Str(s) => s.clone(),
            _ => panic!("workload name"),
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours, "BENCHMARK.json lists exactly the benchmark's workloads");
    assert!(names.iter().all(|n| valid_name(n)));
}

#[test]
fn every_workload_prints_every_declared_metric_at_a_tiny_size() {
    let spec = spec();
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Options { workload: w, seed: 3, seconds: 0.0, trace, scale: Scale::tiny() };
            let out = run(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.notes);
            assert!(out.attempted >= 1 && out.failed == 0);
            let line = parse(&out.to_json());
            assert_eq!(field(&line, "correct"), &Json::Bool(true));
            let Json::Obj(metrics) = field(&line, "metrics") else { panic!("metrics object") };
            let want = declared(&spec, section);
            assert_eq!(
                metrics.keys().cloned().collect::<Vec<_>>(),
                {
                    let mut names: Vec<String> = want.iter().map(|m| m.0.clone()).collect();
                    names.sort();
                    names
                },
                "{} trace={trace}: printed metrics differ from BENCHMARK.json",
                w.name()
            );
            for (name, unit) in want {
                let m = &metrics[&name];
                assert_eq!(field(m, "unit"), &Json::Str(unit.clone()), "unit of {name}");
                assert!(matches!(field(m, "value"), Json::Num(v) if v.is_finite()), "{name}");
            }
        }
    }
}
