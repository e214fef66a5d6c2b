//! The correctness gate: before anything is timed, every distinct request of
//! the workload goes through the server once and its answer must equal, bit
//! for bit, what the same scorer returns when called directly.

use holistix::corpus::json::JsonValue;

/// Check a `/predict` body against the probabilities the scorer returns
/// directly for the same single text.
pub fn check_predict(body: &[u8], expected: &[f64]) -> Result<(), String> {
    let document = parse(body)?;
    let results = document
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("no `results` array")?;
    let [result] = results else {
        return Err(format!("{} results for one text", results.len()));
    };
    let probabilities = result
        .get("probabilities")
        .and_then(JsonValue::as_array)
        .ok_or("no `probabilities` array")?;
    let served: Vec<f64> = probabilities.iter().filter_map(JsonValue::as_f64).collect();
    same_bits("probabilities", &served, expected)
}

fn parse(body: &[u8]) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    JsonValue::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

fn same_bits(what: &str, served: &[f64], expected: &[f64]) -> Result<(), String> {
    if served.len() != expected.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            served.len(),
            expected.len()
        ));
    }
    for (i, (s, e)) in served.iter().zip(expected).enumerate() {
        if s.to_bits() != e.to_bits() {
            return Err(format!("{what}[{i}]: served {s:e}, direct {e:e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/predict` body as the server renders it (same JSON writer).
    fn predict_body(probabilities: &[f64]) -> Vec<u8> {
        JsonValue::object(vec![
            ("model", JsonValue::string("LR")),
            (
                "results",
                JsonValue::Array(vec![JsonValue::object(vec![
                    (
                        "probabilities",
                        JsonValue::Array(
                            probabilities
                                .iter()
                                .map(|&p| JsonValue::Number(p))
                                .collect(),
                        ),
                    ),
                    ("label", JsonValue::string("EA")),
                    ("label_index", JsonValue::Number(0.0)),
                ])]),
            ),
        ])
        .to_string()
        .into_bytes()
    }

    #[test]
    fn predict_check_rejects_one_perturbed_bit() {
        let expected = [0.1, 0.2, 0.3, 0.15, 0.05, 0.2000000000000001];
        assert_eq!(check_predict(&predict_body(&expected), &expected), Ok(()));
        for i in 0..expected.len() {
            let mut served = expected;
            served[i] = f64::from_bits(served[i].to_bits() ^ 1);
            let verdict = check_predict(&predict_body(&served), &expected);
            assert!(verdict.is_err(), "a one-bit change at {i} passed");
        }
        assert!(check_predict(b"not json", &expected).is_err());
    }
}
