//! The `POST /analyze` request model and execution path.
//!
//! A request carries surface-language source plus per-request analysis
//! options (domain, observer, deadline, LP cap). Execution is fully
//! isolated: the driver runs under `catch_unwind` with its own installed
//! budget, so a pathological or crashing submission is answered with a
//! structured error while the server keeps serving.

use crate::cache::CacheKey;
use crate::report;
use blazer_core::{Blazer, Config, DomainKind, UnknownReason, Verdict};
use blazer_http::error_body;
use blazer_ir::cost::CostModel;
use blazer_ir::json::Json;
use std::time::{Duration, Instant};

/// A parsed `POST /analyze` body.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Surface-language source text.
    pub source: String,
    /// Function to analyze; the program's first function when `None`.
    pub function: Option<String>,
    /// Numeric abstract domain (default polyhedra).
    pub domain: DomainKind,
    /// Observer model: `"degree"` (default) or `"stac"`.
    pub observer: String,
    /// Per-request wall-clock deadline in seconds.
    pub timeout_s: Option<f64>,
    /// Per-request LP-call cap.
    pub max_lp_calls: Option<u64>,
    /// Skip attack synthesis after a failed safety proof.
    pub no_attack: bool,
    /// Observer cost model: `"unit"` (default), `"weighted"`, `"cache"`,
    /// or a `{"kind": ...}` parameter object.
    pub cost_model: CostModel,
}

impl AnalyzeRequest {
    /// A request with default options for `source`.
    pub fn new(source: impl Into<String>) -> AnalyzeRequest {
        AnalyzeRequest {
            source: source.into(),
            function: None,
            domain: DomainKind::Polyhedra,
            observer: "degree".to_string(),
            timeout_s: None,
            max_lp_calls: None,
            no_attack: false,
            cost_model: CostModel::unit(),
        }
    }

    /// Parses a request from its JSON body. Unknown members are rejected
    /// so a typoed option fails loudly instead of silently analyzing with
    /// defaults.
    pub fn from_json(doc: &Json) -> Result<AnalyzeRequest, String> {
        let Json::Obj(pairs) = doc else {
            return Err("request body must be a JSON object".to_string());
        };
        let mut req = AnalyzeRequest::new(String::new());
        let mut saw_source = false;
        for (key, value) in pairs {
            match key.as_str() {
                "source" => {
                    req.source = value
                        .as_str()
                        .ok_or("\"source\" must be a string of surface-language code")?
                        .to_string();
                    saw_source = true;
                }
                "function" => {
                    req.function =
                        Some(value.as_str().ok_or("\"function\" must be a string")?.to_string());
                }
                "domain" => {
                    req.domain = match value.as_str() {
                        Some("interval") => DomainKind::Interval,
                        Some("zone") => DomainKind::Zone,
                        Some("octagon") => DomainKind::Octagon,
                        Some("polyhedra") => DomainKind::Polyhedra,
                        _ => {
                            return Err(
                                "\"domain\" must be interval|zone|octagon|polyhedra".to_string()
                            )
                        }
                    };
                }
                "observer" => {
                    req.observer = match value.as_str() {
                        Some(o @ ("degree" | "stac")) => o.to_string(),
                        _ => return Err("\"observer\" must be degree|stac".to_string()),
                    };
                }
                "timeout_s" => {
                    req.timeout_s = Some(
                        value
                            .as_f64()
                            .filter(|s| *s > 0.0)
                            .ok_or("\"timeout_s\" must be a positive number")?,
                    );
                }
                "max_lp_calls" => {
                    req.max_lp_calls = Some(value.as_u64().ok_or(
                        "\"max_lp_calls\" must be a non-negative \
                                                   integer",
                    )?);
                }
                "no_attack" => {
                    req.no_attack = value.as_bool().ok_or("\"no_attack\" must be a boolean")?;
                }
                // The decomposition driver is the only backend. The member
                // is still accepted as a no-op for clients that name it.
                "backend" => match value.as_str() {
                    Some("decomp") => {}
                    _ => {
                        return Err(format!(
                            "\"backend\": {value} was removed; the decomposition driver is \
                             the only backend (omit the member or send \"decomp\")"
                        ))
                    }
                },
                "cost_model" => {
                    req.cost_model =
                        CostModel::from_json(value).map_err(|e| format!("\"cost_model\": {e}"))?;
                }
                other => return Err(format!("unknown request member \"{other}\"")),
            }
        }
        if !saw_source {
            return Err("missing required member \"source\"".to_string());
        }
        Ok(req)
    }

    /// Serializes the request (the client subcommand's wire format).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("source".to_string(), Json::from(self.source.clone()))];
        if let Some(f) = &self.function {
            pairs.push(("function".to_string(), Json::from(f.clone())));
        }
        if self.domain != DomainKind::Polyhedra {
            pairs.push(("domain".to_string(), Json::from(self.domain.to_string())));
        }
        if self.observer != "degree" {
            pairs.push(("observer".to_string(), Json::from(self.observer.clone())));
        }
        if let Some(t) = self.timeout_s {
            pairs.push(("timeout_s".to_string(), Json::Num(t)));
        }
        if let Some(n) = self.max_lp_calls {
            pairs.push(("max_lp_calls".to_string(), Json::from(n)));
        }
        if self.no_attack {
            pairs.push(("no_attack".to_string(), Json::Bool(true)));
        }
        if self.cost_model != CostModel::unit() {
            pairs.push(("cost_model".to_string(), self.cost_model.to_json()));
        }
        Json::Obj(pairs)
    }

    /// The configuration fingerprint half of the cache key: every option
    /// that can change the response. Thread width is deliberately absent —
    /// verdicts are identical at every width. The cost model is present:
    /// bounds, verdicts, leakage, and attack witnesses are all priced under
    /// it, so two requests differing only in `cost_model` must never share
    /// a cache entry or a single-flight slot.
    pub fn fingerprint(&self) -> String {
        format!(
            "domain={};observer={};timeout_s={:?};max_lp_calls={:?};no_attack={};cost_model={}",
            self.domain,
            self.observer,
            self.timeout_s,
            self.max_lp_calls,
            self.no_attack,
            self.cost_model
        )
    }

    /// The content-addressed cache key for this request.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new(&self.source, self.function.as_deref(), &self.fingerprint())
    }

    /// The driver configuration this request asks for. `max_timeout`
    /// clamps the deadline server-side; `threads` pins the per-analysis
    /// trail-evaluation width (a busy server parallelizes across requests,
    /// not within one).
    pub fn to_config(&self, max_timeout: Option<Duration>, threads: usize) -> Config {
        let mut config = match self.observer.as_str() {
            "stac" => Config::stac(),
            _ => Config::microbench(),
        };
        config.domain = self.domain;
        config.cost_model = self.cost_model.clone();
        config.synthesize_attack = !self.no_attack;
        config.threads = Some(threads);
        let requested = self.timeout_s.map(Duration::from_secs_f64);
        if let Some(deadline) = match (requested, max_timeout) {
            (Some(r), Some(cap)) => Some(r.min(cap)),
            (r, cap) => r.or(cap),
        } {
            config = config.with_timeout(deadline);
        }
        if let Some(n) = self.max_lp_calls {
            config = config.with_max_lp_calls(n);
        }
        config
    }
}

/// The executed result of one analyze request, before HTTP framing.
pub struct AnalyzeResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: Json,
    /// Whether the (successful) response should enter the verdict cache.
    pub cacheable: bool,
}

fn crash_response(msg: &str) -> AnalyzeResponse {
    AnalyzeResponse {
        status: 500,
        body: error_body(format!("analysis crashed: {msg}")),
        cacheable: false,
    }
}

/// The non-cacheable 422 answer of a budget-exhausted analysis: the
/// budget describes this request, not the program, so the result must
/// never be served to a future (possibly better-funded) submission.
fn exhausted_response(
    resource: &impl std::fmt::Display,
    wall_s: f64,
    budget: &blazer_core::BudgetReport,
) -> AnalyzeResponse {
    let body = Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(format!("analysis budget exhausted: {resource}"))),
        ("verdict", Json::from("unknown")),
        ("wall_s", Json::secs(wall_s)),
        ("budget", report::budget_json(budget)),
    ]);
    AnalyzeResponse { status: 422, body, cacheable: false }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// A structured client error (malformed body, compile failure, unknown
/// function).
pub fn bad_request(error: impl Into<String>) -> AnalyzeResponse {
    AnalyzeResponse { status: 400, body: error_body(error), cacheable: false }
}

/// Compiles and analyzes one request end to end. Never panics: driver
/// crashes become structured 500 responses.
pub fn execute(
    req: &AnalyzeRequest,
    max_timeout: Option<Duration>,
    threads: usize,
) -> AnalyzeResponse {
    let started = Instant::now();
    let program = match blazer_lang::compile(&req.source) {
        Ok(p) => p,
        Err(e) => return bad_request(format!("compile error: {e}")),
    };
    let function = match &req.function {
        Some(f) => f.clone(),
        None => match program.functions().next() {
            Some(f) => f.name().to_string(),
            None => return bad_request("program contains no functions"),
        },
    };
    let config = req.to_config(max_timeout, threads);
    let analyzed = std::panic::catch_unwind({
        let program = program.clone();
        move || Blazer::new(config).analyze(&program, &function)
    });
    let outcome = match analyzed {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return bad_request(format!("analysis error: {e}")),
        Err(payload) => return crash_response(&panic_text(payload)),
    };
    let wall_s = started.elapsed().as_secs_f64();
    if let Verdict::Unknown(UnknownReason::BudgetExhausted(resource)) = &outcome.verdict {
        return exhausted_response(resource, wall_s, &outcome.budget_report);
    }
    let Json::Obj(mut pairs) = report::outcome_json(&program, &outcome, wall_s) else {
        unreachable!("outcome_json returns an object");
    };
    pairs.insert(0, ("ok".to_string(), Json::Bool(true)));
    pairs.insert(1, ("key".to_string(), Json::Str(req.cache_key().address())));
    AnalyzeResponse { status: 200, body: Json::Obj(pairs), cacheable: true }
}

/// Prefixes a batch item's body with its per-item HTTP status — the shape
/// of every element of a batch answer, from the service and the router
/// alike. A body that already carries a status has it replaced, and a body
/// that is not a JSON object (nothing the server produces, but a
/// hand-edited cache file can hold anything) is carried verbatim, not
/// rewrapped into a different shape.
pub fn with_item_status(status: u16, body: &str) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(mut pairs)) => {
            pairs.retain(|(k, _)| k != "status");
            pairs.insert(0, ("status".to_string(), Json::from(u64::from(status))));
            Json::Obj(pairs).to_string()
        }
        _ => body.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_status_is_prefixed_and_never_duplicated() {
        let item = with_item_status(422, r#"{"ok": false, "error": "budget"}"#);
        let doc = Json::parse(&item).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("object in, object out") };
        assert_eq!(pairs[0].0, "status");
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(422));
        let again = with_item_status(200, &item);
        let doc = Json::parse(&again).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(with_item_status(503, "[1, 2]"), "[1, 2]");
    }

    #[test]
    fn parses_full_request_and_roundtrips() {
        let doc = Json::parse(
            r#"{"source": "fn f() { }", "function": "f", "domain": "zone",
                "observer": "stac", "timeout_s": 2.5, "max_lp_calls": 100,
                "no_attack": true}"#,
        )
        .unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        assert_eq!(req.domain, DomainKind::Zone);
        assert_eq!(req.observer, "stac");
        assert_eq!(req.timeout_s, Some(2.5));
        assert_eq!(req.max_lp_calls, Some(100));
        assert!(req.no_attack);
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn rejects_bad_members() {
        for (body, needle) in [
            (r#"{"function": "f"}"#, "source"),
            (r#"{"source": "x", "domain": "cube"}"#, "domain"),
            (r#"{"source": "x", "observer": "nsa"}"#, "observer"),
            (r#"{"source": "x", "timeout_s": -1}"#, "timeout_s"),
            (r#"{"source": "x", "frobnicate": 1}"#, "frobnicate"),
            (r#"[1, 2]"#, "object"),
        ] {
            let err = AnalyzeRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn fingerprint_separates_configs_but_not_threads() {
        let base = AnalyzeRequest::new("fn f() { }");
        let mut zoned = base.clone();
        zoned.domain = DomainKind::Zone;
        assert_ne!(base.fingerprint(), zoned.fingerprint());
        // Same request analyzed at different widths is the same key.
        assert_eq!(base.cache_key(), base.cache_key());
    }

    #[test]
    fn cache_key_separates_cost_models() {
        // Regression: the fingerprint once omitted the cost model, so a
        // verdict priced under the unit model could be cached (or joined
        // as an in-flight single-flight follower — the flight table is
        // keyed by the same cache key) and then served to a request asking
        // for the cache-aware observer, whose bounds, leakage, and attack
        // epsilon are all different.
        let mut keys = Vec::new();
        for model in [CostModel::unit(), CostModel::weighted(), CostModel::cache_aware()] {
            let mut req = AnalyzeRequest::new("fn f(a: int[] #high) { let x: int = a[0]; }");
            req.cost_model = model;
            keys.push(req.cache_key());
        }
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        // A custom table is distinct from every preset too.
        let mut custom = AnalyzeRequest::new("fn f(a: int[] #high) { let x: int = a[0]; }");
        custom.cost_model =
            CostModel::from_json(&Json::parse(r#"{"kind": "weighted", "assign": 5}"#).unwrap())
                .unwrap();
        assert!(!keys.contains(&custom.cache_key()));
    }

    #[test]
    fn cost_model_roundtrips_and_default_is_omitted_from_wire() {
        // Preset by name.
        let doc = Json::parse(r#"{"source": "fn f() { }", "cost_model": "cache"}"#).unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        assert_eq!(req.cost_model, CostModel::cache_aware());
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
        // Custom object form.
        let doc = Json::parse(
            r#"{"source": "fn f() { }",
                "cost_model": {"kind": "cache", "hit": 2, "miss": 20, "ways": 2}}"#,
        )
        .unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        let params = req.cost_model.cache_params().expect("cache model");
        assert_eq!((params.hit, params.miss, params.ways), (2, 20, 2));
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
        // The default unit model stays off the wire for old-client parity.
        let plain = AnalyzeRequest::new("fn f() { }");
        assert!(plain.to_json().get("cost_model").is_none());
    }

    #[test]
    fn bad_cost_models_are_rejected_with_messages() {
        for (body, needle) in [
            (r#"{"source": "x", "cost_model": "l33t"}"#, "unknown cost model"),
            (r#"{"source": "x", "cost_model": {"assign": 1}}"#, "kind"),
            (
                r#"{"source": "x", "cost_model": {"kind": "cache", "hit": 9, "miss": 3}}"#,
                "miss >= hit",
            ),
            (r#"{"source": "x", "cost_model": {"kind": "cache", "ways": 0}}"#, ">= 1"),
            (r#"{"source": "x", "cost_model": {"kind": "weighted", "assign": -2}}"#, "negative"),
            (r#"{"source": "x", "cost_model": 17}"#, "name string or an object"),
        ] {
            let err = AnalyzeRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains("cost_model"), "{body} -> {err}");
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn decomp_backend_is_a_no_op_and_removed_backends_are_rejected() {
        let doc = Json::parse(r#"{"source": "fn f() { }", "backend": "decomp"}"#).unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        assert_eq!(req, AnalyzeRequest::new("fn f() { }"));
        assert!(req.to_json().get("backend").is_none());
        for backend in [r#""portfolio""#, r#""selfcomp""#, "7"] {
            let body = format!(r#"{{"source": "x", "backend": {backend}}}"#);
            let err = AnalyzeRequest::from_json(&Json::parse(&body).unwrap()).unwrap_err();
            assert!(err.contains("backend") && err.contains("removed"), "{body} -> {err}");
        }
    }

    #[test]
    fn execute_reports_compile_errors_as_400() {
        let resp = execute(&AnalyzeRequest::new("fn broken( {"), None, 1);
        assert_eq!(resp.status, 400);
        assert!(!resp.cacheable);
        assert_eq!(resp.body.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn execute_clamps_deadline_and_reports_exhaustion_as_422() {
        let src = "fn f(h: int #high, low: int) { \
            if (h == 0) { let i: int = 0; while (i < low) { i = i + 1; } } \
            else { let i: int = low; while (i > 0) { i = i - 1; } } }";
        let mut req = AnalyzeRequest::new(src);
        req.timeout_s = Some(3600.0);
        let resp = execute(&req, Some(Duration::from_nanos(1)), 1);
        assert_eq!(resp.status, 422);
        assert!(!resp.cacheable);
        assert!(resp
            .body
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("budget exhausted")));
    }

    #[test]
    fn execute_analyzes_safe_program() {
        let resp = execute(
            &AnalyzeRequest::new(
                "fn f(h: int #high) { if (h > 0) { tick(3); } else { tick(3); } }",
            ),
            None,
            1,
        );
        assert_eq!(resp.status, 200);
        assert!(resp.cacheable);
        assert_eq!(resp.body.get("verdict").and_then(Json::as_str), Some("safe"));
        assert_eq!(resp.body.get("key").and_then(Json::as_str).map(str::len), Some(16));
    }
}
