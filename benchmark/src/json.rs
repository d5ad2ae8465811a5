//! JSON in and out, through the repository's own helpers: values are written
//! with `flashmark_bench::json` and documents are read with the lint
//! engine's parser. This module adds one-line rendering and field access.

pub use flashmark_bench::json::Json;
pub use flashmark_lint_engine::finding::json::{parse, Value};

/// `value` on one line: [`Json::pretty`] without its line breaks and
/// indentation. String contents never span lines (line breaks inside them
/// are escaped), so only layout is removed.
#[must_use]
pub fn one_line(value: &Json) -> String {
    value.pretty().lines().map(str::trim_start).collect()
}

/// The member `key` of an object.
#[must_use]
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The number, if `value` is one.
#[must_use]
pub fn num(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// The boolean, if `value` is one.
#[must_use]
pub fn flag(value: &Value) -> Option<bool> {
    match value {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_keeps_every_digit_and_parses_back() {
        let v = Json::Obj(vec![
            ("x".into(), Json::Num(1.203_456_789_012_3)),
            ("n".into(), Json::UInt(7)),
            ("s".into(), Json::Str("  a\"b\n".into())),
            ("a".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let line = one_line(&v);
        assert!(!line.contains('\n'), "{line}");
        let back = parse(&line).unwrap();
        assert_eq!(get(&back, "x").and_then(num), Some(1.203_456_789_012_3));
        assert_eq!(get(&back, "n").and_then(num), Some(7.0));
        assert_eq!(get(&back, "s").and_then(Value::as_str), Some("  a\"b\n"));
        let a = get(&back, "a").and_then(Value::as_array).unwrap();
        assert_eq!(flag(&a[0]), Some(true));
        assert_eq!(a[1], Value::Null);
    }
}
