//! The result line the driver parses: one JSON object, written by hand
//! (the workspace is offline, no serde).

/// A JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits the measurement has. JSON has no
/// NaN or infinity; a metric that is not finite is a harness bug, and
/// `null` makes the driver say so instead of reading a made-up number.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name:
/// {"value": …, "unit": …}, …}}` on one line, metrics in the given order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_secure::campaign::json;

    #[test]
    fn strings_are_escaped_so_that_they_parse_back() {
        let nasty = "a \"quoted\" back\\slash\nnew\ttab \u{1} ünïcode";
        let doc = json::parse(&format!("{{\"k\": {}}}", quote(nasty))).unwrap();
        let json::Val::Str(back) = &doc.get("k").unwrap().v else {
            panic!("not a string");
        };
        assert_eq!(back, nasty);
    }

    #[test]
    fn numbers_keep_their_digits_and_never_print_nan() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn result_line_is_one_line_of_valid_json_with_the_contract_keys() {
        let line = result_line(true, 120, 0, &[("wall_s", 0.25, "s"), ("x.y", 2.0, "ns")]);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let json::Val::Obj(members) = &doc.v else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert!(matches!(wall.get("value").unwrap().v, json::Val::Num(v) if v == 0.25));
        assert!(matches!(&wall.get("unit").unwrap().v, json::Val::Str(u) if u == "s"));
    }
}
