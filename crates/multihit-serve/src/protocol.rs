//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line, flat objects only — the
//! same shape (and the same codec, [`multihit_core::obs::json_object`] /
//! [`parse_json_object`]) as the observability stream, so the repo carries
//! exactly one hand-rolled JSON implementation. Gene lists travel as one
//! comma-joined string field, which keeps the objects flat and mirrors the
//! `genes` column of the results TSV.
//!
//! ```text
//! → {"id":1,"model":"BRCA-synth","genes":"TP53,KRAS,EGFR"}
//! ← {"id":1,"status":"ok","tumor":true,"cache_hit":false,"v":1}
//! ← {"id":2,"status":"shed"}                      (queue full: 503-style)
//! ← {"id":3,"status":"error","error":"unknown model \"X\""}
//! → {"id":4,"model":"m","genes":"TP53","tenant":3}     (tenant-attributed)
//! ← {"id":4,"status":"shed","tenant":3}          (over per-tenant budget)
//! ```
//!
//! `tenant` names the admission-control account a request bills against
//! (see [`crate::Admission`]); it is optional and defaults to tenant 0,
//! so single-tenant clients and pre-tenant captures keep parsing. Every
//! response echoes a nonzero tenant back, which is how the load generator
//! proves sheds are attributed to the tenant that overran its budget.
//!
//! `v` is the registry generation that produced the verdict. The registry
//! is hot-swappable (see [`crate::registry::SharedRegistry`]); stamping
//! every ok response with its generation is what lets the load generator
//! prove that a swap mid-load loses or corrupts nothing — each response
//! must match the scalar reference of *some* published generation.
//!
//! The binary sibling of this protocol lives in [`crate::frame`]; a
//! connection's first byte selects between them.

use multihit_core::obs::{json_object, parse_json_object, Value};

/// A classification request: which panel to use and the sample's mutated
/// gene symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Panel (model) name in the registry.
    pub model: String,
    /// Mutated gene symbols. Order and duplicates are irrelevant: the
    /// sample is the *set*.
    pub genes: Vec<String>,
    /// Admission-control account this request bills against (0 = default
    /// tenant, omitted on the wire).
    pub tenant: u32,
}

impl Request {
    /// Serialize as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("id".to_string(), Value::U64(self.id)),
            ("model".to_string(), Value::Str(self.model.clone())),
            ("genes".to_string(), Value::Str(self.genes.join(","))),
        ];
        if self.tenant != 0 {
            fields.push(("tenant".to_string(), Value::U64(u64::from(self.tenant))));
        }
        json_object(&fields)
    }

    /// Parse one JSON line.
    ///
    /// # Errors
    /// Returns a description of the first problem (syntax or missing field).
    pub fn from_json(line: &str) -> Result<Request, String> {
        let pairs = parse_json_object(line)?;
        let mut id = None;
        let mut model = None;
        let mut genes = Vec::new();
        let mut tenant = 0u32;
        for (k, v) in pairs {
            match (k.as_str(), v) {
                ("id", v) => id = v.as_u64(),
                ("model", Value::Str(s)) => model = Some(s),
                ("genes", Value::Str(s)) => {
                    genes = s
                        .split(',')
                        .filter(|g| !g.is_empty())
                        .map(ToString::to_string)
                        .collect();
                }
                ("tenant", v) => {
                    tenant = u32::try_from(v.as_u64().ok_or("\"tenant\" must be a number")?)
                        .map_err(|_| "\"tenant\" exceeds u32".to_string())?;
                }
                _ => {}
            }
        }
        Ok(Request {
            id: id.ok_or("missing \"id\"")?,
            model: model.ok_or("missing \"model\"")?,
            genes,
            tenant,
        })
    }
}

/// Response disposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Classified; `tumor` is meaningful.
    Ok,
    /// Rejected by queue-full load shedding (retry later).
    Shed,
    /// Failed; `error` explains why.
    Error,
}

impl Status {
    /// Wire name in the `status` field.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Shed => "shed",
            Status::Error => "error",
        }
    }

    /// Parse the wire name back.
    #[must_use]
    pub fn from_wire(s: &str) -> Option<Status> {
        match s {
            "ok" => Some(Status::Ok),
            "shed" => Some(Status::Shed),
            "error" => Some(Status::Error),
            _ => None,
        }
    }
}

/// A classification response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Disposition.
    pub status: Status,
    /// Tumor verdict (only meaningful when `status == Ok`).
    pub tumor: bool,
    /// Whether the verdict came from the signature cache.
    pub cache_hit: bool,
    /// Registry generation that produced the verdict (0 outside `Ok`).
    pub version: u64,
    /// Tenant the request billed against, echoed back (0 = default,
    /// omitted on the wire). Shed responses must carry this so a client
    /// can tell *whose* budget the rejection was charged to.
    pub tenant: u32,
    /// Error description (empty unless `status == Error`).
    pub error: String,
}

impl Response {
    /// A successful classification under registry generation `version`.
    #[must_use]
    pub fn ok(id: u64, tumor: bool, cache_hit: bool, version: u64) -> Response {
        Response {
            id,
            status: Status::Ok,
            tumor,
            cache_hit,
            version,
            tenant: 0,
            error: String::new(),
        }
    }

    /// A load-shed rejection (queue full or over tenant budget).
    #[must_use]
    pub fn shed(id: u64) -> Response {
        Response {
            id,
            status: Status::Shed,
            tumor: false,
            cache_hit: false,
            version: 0,
            tenant: 0,
            error: String::new(),
        }
    }

    /// A failure.
    #[must_use]
    pub fn error(id: u64, message: impl Into<String>) -> Response {
        Response {
            id,
            status: Status::Error,
            tumor: false,
            cache_hit: false,
            version: 0,
            tenant: 0,
            error: message.into(),
        }
    }

    /// Attribute this response to a tenant (billing echo).
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Response {
        self.tenant = tenant;
        self
    }

    /// Serialize as one JSON line (no trailing newline). Ok responses carry
    /// `tumor`/`cache_hit`; error responses carry `error`; shed responses
    /// carry the id and status only.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("id".to_string(), Value::U64(self.id)),
            (
                "status".to_string(),
                Value::Str(self.status.wire_name().to_string()),
            ),
        ];
        match self.status {
            Status::Ok => {
                fields.push(("tumor".to_string(), Value::Bool(self.tumor)));
                fields.push(("cache_hit".to_string(), Value::Bool(self.cache_hit)));
                fields.push(("v".to_string(), Value::U64(self.version)));
            }
            Status::Shed => {}
            Status::Error => fields.push(("error".to_string(), Value::Str(self.error.clone()))),
        }
        if self.tenant != 0 {
            fields.push(("tenant".to_string(), Value::U64(u64::from(self.tenant))));
        }
        json_object(&fields)
    }

    /// Parse one JSON line.
    ///
    /// # Errors
    /// Returns a description of the first problem (syntax or missing field).
    pub fn from_json(line: &str) -> Result<Response, String> {
        let pairs = parse_json_object(line)?;
        let mut id = None;
        let mut status = None;
        let mut tumor = false;
        let mut cache_hit = false;
        let mut version = 0;
        let mut tenant = 0u32;
        let mut error = String::new();
        for (k, v) in pairs {
            match (k.as_str(), v) {
                ("id", v) => id = v.as_u64(),
                ("status", Value::Str(s)) => {
                    status =
                        Some(Status::from_wire(&s).ok_or_else(|| format!("bad status {s:?}"))?);
                }
                ("tumor", Value::Bool(b)) => tumor = b,
                ("cache_hit", Value::Bool(b)) => cache_hit = b,
                ("v", v) => version = v.as_u64().unwrap_or(0),
                ("tenant", v) => {
                    tenant = u32::try_from(v.as_u64().unwrap_or(0)).unwrap_or(0);
                }
                ("error", Value::Str(s)) => error = s,
                _ => {}
            }
        }
        Ok(Response {
            id: id.ok_or("missing \"id\"")?,
            status: status.ok_or("missing \"status\"")?,
            tumor,
            cache_hit,
            version,
            tenant,
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let r = Request {
            id: 42,
            model: "BRCA-synth".to_string(),
            genes: vec!["TP53".to_string(), "KRAS".to_string()],
            tenant: 0,
        };
        assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn empty_gene_list_round_trips() {
        let r = Request {
            id: 0,
            model: "m".to_string(),
            genes: vec![],
            tenant: 0,
        };
        let back = Request::from_json(&r.to_json()).unwrap();
        assert!(back.genes.is_empty());
    }

    #[test]
    fn tenant_field_round_trips_and_defaults() {
        let r = Request {
            id: 7,
            model: "m".to_string(),
            genes: vec!["TP53".to_string()],
            tenant: 3,
        };
        let line = r.to_json();
        assert!(line.contains("\"tenant\":3"), "{line}");
        assert_eq!(Request::from_json(&line).unwrap(), r);
        // Pre-tenant captures (no field) parse as the default tenant.
        let legacy = Request::from_json("{\"id\":1,\"model\":\"m\",\"genes\":\"A\"}").unwrap();
        assert_eq!(legacy.tenant, 0);
        // Default tenant stays off the wire.
        assert!(!legacy.to_json().contains("tenant"));
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            Response::ok(1, true, false, 1),
            Response::ok(2, false, true, 7),
            Response::ok(5, true, true, 2).with_tenant(9),
            Response::shed(3),
            Response::shed(6).with_tenant(4),
            Response::error(4, "unknown model \"X\""),
        ] {
            assert_eq!(Response::from_json(&r.to_json()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn shed_response_carries_tenant_attribution() {
        let line = Response::shed(11).with_tenant(2).to_json();
        assert!(line.contains("\"status\":\"shed\""), "{line}");
        assert!(line.contains("\"tenant\":2"), "{line}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::from_json("{}").is_err());
        assert!(Request::from_json("{\"id\":1}").is_err());
        assert!(Response::from_json("{\"id\":1,\"status\":\"nope\"}").is_err());
        assert!(Response::from_json("not json").is_err());
    }
}
