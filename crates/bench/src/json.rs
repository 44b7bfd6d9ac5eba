//! The one JSON writer and reader of the committed `results/BENCH_*.json`
//! baselines.
//!
//! The workspace is fully vendored and has no serde. An artifact is one
//! object whose values are strings, unsigned integers, floats (written
//! with three decimals), booleans, or arrays of flat records: objects
//! whose values are scalars. The crate's `artifact!` macro declares a
//! baseline struct whose fields, in declaration order, are its JSON
//! fields. The writer puts each top-level field on its own line
//! and each record on one line, which is the byte format of the
//! committed files. Strings are written as they are, so they must not
//! hold a `"` (the ids and topology specs stored here never do). The
//! reader accepts any whitespace between tokens, returns `Err` on
//! anything else (a missing brace, trailing text, nesting below a
//! record) and never panics.

use std::fmt;

/// One field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number or boolean, as written.
    Token(String),
    /// An array of flat records (top level only).
    Records(Vec<Object>),
}

/// A type a field can hold.
pub trait Field: Sized {
    /// The field's value.
    fn to_value(&self) -> Value;
    /// Reads the value back.
    ///
    /// # Errors
    /// If `v` has another type or does not parse.
    fn from_value(v: &Value) -> Result<Self, String>;
}

impl Field for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_value(v: &Value) -> Result<String, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err("expected a string".to_string()),
        }
    }
}

/// Scalars written with `$fmt` and read back with `FromStr`.
macro_rules! token_field {
    ($($t:ty => $fmt:literal),*) => {$(
        impl Field for $t {
            fn to_value(&self) -> Value {
                Value::Token(format!($fmt, self))
            }

            fn from_value(v: &Value) -> Result<$t, String> {
                match v {
                    Value::Token(t) => t.parse().map_err(|_| format!("bad value {t:?}")),
                    _ => Err(format!("expected a {}", stringify!($t))),
                }
            }
        }
    )*};
}

token_field!(u64 => "{}", usize => "{}", bool => "{}", f64 => "{:.3}");

impl<T: Record> Field for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Records(self.iter().map(Record::to_object).collect())
    }

    fn from_value(v: &Value) -> Result<Vec<T>, String> {
        match v {
            Value::Records(records) => records.iter().map(T::from_object).collect(),
            _ => Err("expected an array of records".to_string()),
        }
    }
}

/// A struct that maps to an [`Object`], field for field.
pub trait Record: Sized {
    /// The struct as an object, fields in declaration order.
    fn to_object(&self) -> Object;
    /// Reads the struct back.
    ///
    /// # Errors
    /// The first missing or malformed field.
    fn from_object(o: &Object) -> Result<Self, String>;
}

/// Declares a `pub struct` with named `pub` fields of [`Field`] types,
/// implements [`Record`] for it, and gives it `to_json` and `from_json`.
macro_rules! artifact {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name { $($(#[$fmeta])* pub $field: $ty,)* }

        impl $crate::json::Record for $name {
            fn to_object(&self) -> $crate::json::Object {
                $crate::json::Object(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::Field::to_value(&self.$field),
                ),)*])
            }

            fn from_object(o: &$crate::json::Object) -> Result<$name, String> {
                Ok($name { $($field: o.get(stringify!($field))?,)* })
            }
        }

        impl $name {
            /// The committed JSON text.
            #[must_use]
            pub fn to_json(&self) -> String {
                $crate::json::Record::to_object(self).to_json()
            }

            /// Parses the committed JSON text.
            ///
            /// # Errors
            /// The first malformed, missing or mistyped field.
            pub fn from_json(text: &str) -> Result<$name, String> {
                $crate::json::Record::from_object(&$crate::json::Object::parse(text)?)
            }
        }
    };
}

pub(crate) use artifact;

/// A JSON object: its fields in written order.
#[derive(Debug, Clone, PartialEq)]
pub struct Object(pub(crate) Vec<(String, Value)>);

impl Object {
    /// Reads the field `key` as a `T`.
    ///
    /// # Errors
    /// If the field is missing or holds another type.
    pub fn get<T: Field>(&self, key: &str) -> Result<T, String> {
        let (_, v) = self
            .0
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        T::from_value(v).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// The artifact text: one field per line, indented two spaces, and a
    /// newline after the closing brace.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Parses an artifact.
    ///
    /// # Errors
    /// What was expected, and at which byte.
    pub fn parse(text: &str) -> Result<Object, String> {
        let mut r = Reader { text, at: 0 };
        let object = r.object(true)?;
        r.skip_ws();
        if r.at < text.len() {
            return Err(r.error("trailing text"));
        }
        Ok(object)
    }
}

/// A record's one-line form: `{"key": value, ...}`.
impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Token(t) => f.write_str(t),
            Value::Records(records) => {
                let lines: Vec<String> = records.iter().map(|r| format!("    {r}")).collect();
                write!(f, "[\n{}\n  ]", lines.join(",\n"))
            }
        }
    }
}

/// A cursor over the text being parsed. `at` only ever steps over ASCII
/// bytes, so it always sits on a character boundary.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.at..];
        self.at += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", char::from(byte))))
        }
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn list<T>(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", char::from(close)))),
            }
        }
    }

    /// An object; its values may be record arrays only if `top`.
    fn object(&mut self, top: bool) -> Result<Object, String> {
        let fields = self.list((b'{', b'}'), |r| {
            let key = r.string()?;
            r.eat(b':')?;
            Ok((key, r.value(top)?))
        })?;
        Ok(Object(fields))
    }

    fn value(&mut self, top: bool) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') if top => self.list((b'[', b']'), |r| r.object(false)).map(Value::Records),
            _ => {
                let rest = &self.text.as_bytes()[self.at..];
                let len = rest
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'+'))
                    .count();
                if len == 0 {
                    return Err(self.error("expected a value"));
                }
                self.at += len;
                Ok(Value::Token(self.text[self.at - len..self.at].to_string()))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let rest = &self.text[self.at..];
        let end = rest.find('"').ok_or_else(|| self.error("unterminated string"))?;
        self.at += end + 1;
        Ok(rest[..end].to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    artifact! {
        /// A record of the test artifact.
        pub struct Row {
            /// A string.
            pub spec: String,
            /// An integer.
            pub n: usize,
            /// A float.
            pub ms: f64,
            /// A boolean.
            pub ok: bool,
        }
    }

    artifact! {
        /// A test artifact with every field type.
        pub struct Sample {
            /// A string.
            pub id: String,
            /// The largest integer.
            pub count: u64,
            /// Records.
            pub rows: Vec<Row>,
            /// No records.
            pub none: Vec<Row>,
        }
    }

    fn sample() -> Sample {
        let row = |spec: &str, ok| Row { spec: spec.to_string(), n: 3, ms: 2.0, ok };
        Sample {
            id: "w:1;x".to_string(),
            count: u64::MAX,
            rows: vec![row("a", true), row("b", false)],
            none: Vec::new(),
        }
    }

    #[test]
    fn writes_the_committed_layout() {
        assert_eq!(
            sample().to_json(),
            "{\n  \"id\": \"w:1;x\",\n  \"count\": 18446744073709551615,\n  \
             \"rows\": [\n    {\"spec\": \"a\", \"n\": 3, \"ms\": 2.000, \"ok\": true},\n    \
             {\"spec\": \"b\", \"n\": 3, \"ms\": 2.000, \"ok\": false}\n  ],\n  \
             \"none\": [\n\n  ]\n}\n"
        );
    }

    #[test]
    fn round_trips_every_field_type() {
        let s = sample();
        assert_eq!(Sample::from_json(&s.to_json()).unwrap(), s);
        let row = &s.rows[1];
        assert_eq!(Row::from_json(&row.to_json()).unwrap(), *row);
    }

    #[test]
    fn rejects_what_the_format_does_not_hold() {
        for bad in [
            "",
            "{",
            "{} x",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{\"a\": }",
            "{\"a\": \"open}",
            "{\"a\": [{\"b\": [{}]}]}",
            "{\"a\": {}}",
            "{\"a\": [1]}",
        ] {
            assert!(Object::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn get_names_missing_and_mistyped_fields() {
        let o = Object::parse("{\"n\": 1.5, \"s\": \"x\", \"big\": 18446744073709551616}").unwrap();
        assert_eq!(o.get::<u64>("m").unwrap_err(), "missing field \"m\"");
        assert_eq!(o.get::<u64>("n").unwrap_err(), "field \"n\": bad value \"1.5\"");
        assert!(o.get::<u64>("big").is_err());
        assert!(o.get::<bool>("s").is_err());
        assert!(o.get::<String>("n").is_err());
        assert!(o.get::<Vec<Row>>("s").is_err());
        assert_eq!(o.get::<f64>("n").unwrap(), 1.5);
    }
}
