//! Parameterized channel specifications and parameter bindings.

use std::collections::BTreeMap;
use std::fmt;

use bad_types::{BadError, DataValue, Result, SimDuration};

use crate::ast::{Expr, ParamType};
use crate::eval::EvalContext;

/// A declared channel parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamDef {
    /// Parameter name (referenced as `$name` in the predicate).
    pub name: String,
    /// Declared type.
    pub ty: ParamType,
}

/// How a channel executes in the data cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelMode {
    /// Matched against each publication as it arrives.
    Continuous,
    /// Executed periodically over the records accumulated since the last
    /// execution.
    Repetitive {
        /// Execution period.
        period: SimDuration,
    },
}

impl fmt::Display for ChannelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelMode::Continuous => write!(f, "continuous"),
            ChannelMode::Repetitive { period } => write!(f, "repetitive every {period}"),
        }
    }
}

/// What a matching channel emits per matched record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelectClause {
    /// Emit the whole record (`select r`).
    All,
    /// Emit an object containing only the given field paths.
    Fields(Vec<Vec<String>>),
}

impl SelectClause {
    /// Applies the projection to a record.
    ///
    /// Missing fields project to `null`, consistent with open schemas. A
    /// kept array or object is shared with the record, not copied.
    pub fn project(&self, record: &DataValue) -> DataValue {
        match self {
            SelectClause::All => record.clone(),
            SelectClause::Fields(fields) => DataValue::object(fields.iter().map(|path| {
                let key = path.join(".");
                let value = record.get_path(&key).cloned().unwrap_or(DataValue::Null);
                (key, value)
            })),
        }
    }
}

/// A validated, parameterized channel declaration.
///
/// Instances are normally produced by [`ChannelSpec::parse`]; the typed
/// constructor [`ChannelSpec::new`] is available for programmatic
/// construction.
///
/// # Examples
///
/// ```
/// use bad_query::ChannelSpec;
///
/// let spec = ChannelSpec::parse(
///     "channel ShelterInfo(city: string) from Shelters s \
///      where s.city == $city select s.name, s.capacity every 1m",
/// )?;
/// assert_eq!(spec.name(), "ShelterInfo");
/// # Ok::<(), bad_types::BadError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelSpec {
    name: String,
    params: Vec<ParamDef>,
    dataset: String,
    var: String,
    predicate: Expr,
    select: SelectClause,
    mode: ChannelMode,
}

impl ChannelSpec {
    /// Builds and validates a channel from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::Parse`] when the predicate references a
    /// parameter that is not declared, or a parameter name is duplicated.
    pub fn new(
        name: impl Into<String>,
        params: Vec<ParamDef>,
        dataset: impl Into<String>,
        var: impl Into<String>,
        predicate: Expr,
        select: SelectClause,
        mode: ChannelMode,
    ) -> Result<Self> {
        let name = name.into();
        let spec = Self {
            name,
            params,
            dataset: dataset.into(),
            var: var.into(),
            predicate,
            select,
            mode,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a channel declaration from BQL source.
    ///
    /// # Errors
    ///
    /// See [`crate::parse_channel`].
    pub fn parse(src: &str) -> Result<Self> {
        crate::parser::parse_channel(src)
    }

    fn validate(&self) -> Result<()> {
        let mut seen: Vec<&str> = Vec::new();
        for p in &self.params {
            if seen.contains(&p.name.as_str()) {
                return Err(BadError::Parse(format!(
                    "bql: duplicate parameter `{}` in channel `{}`",
                    p.name, self.name
                )));
            }
            seen.push(&p.name);
        }
        for used in self.predicate.referenced_params() {
            if !seen.contains(&used) {
                return Err(BadError::Parse(format!(
                    "bql: predicate of channel `{}` references undeclared parameter `${used}`",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// The channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared parameters, in declaration order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// The dataset the channel reads from.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The record variable name used in the declaration.
    pub fn var(&self) -> &str {
        &self.var
    }

    /// The (validated) predicate expression.
    pub fn predicate(&self) -> &Expr {
        &self.predicate
    }

    /// The projection applied to matched records.
    pub fn select(&self) -> &SelectClause {
        &self.select
    }

    /// Continuous or repetitive execution.
    pub fn mode(&self) -> ChannelMode {
        self.mode
    }

    /// Checks a record against the predicate with the given bindings.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::Type`] when the predicate does not evaluate to
    /// a boolean (e.g. comparing a string to a number), or a binding for a
    /// declared parameter is missing or of the wrong type.
    pub fn matches(&self, record: &DataValue, params: &ParamBindings) -> Result<bool> {
        params.check_against(&self.params)?;
        self.matches_checked(record, params)
    }

    /// [`ChannelSpec::matches`] without the binding check, for bindings
    /// that already passed [`ParamBindings::check_against`] on this
    /// channel's parameters — a subscription index checks them once, when
    /// the subscription is added, not once per record.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::Type`] when the predicate does not evaluate to
    /// a boolean.
    pub fn matches_checked(&self, record: &DataValue, params: &ParamBindings) -> Result<bool> {
        let value = EvalContext::new(record, params).eval_ref(&self.predicate)?;
        value.as_bool().ok_or_else(|| {
            BadError::Type(format!(
                "predicate of channel `{}` evaluated to non-boolean {value}",
                self.name
            ))
        })
    }

    /// Checks a record and, on match, applies the select projection.
    ///
    /// Returns `Ok(None)` when the record does not match.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChannelSpec::matches`].
    pub fn evaluate(
        &self,
        record: &DataValue,
        params: &ParamBindings,
    ) -> Result<Option<DataValue>> {
        if self.matches(record, params)? {
            Ok(Some(self.select.project(record)))
        } else {
            Ok(None)
        }
    }

    /// Extracts `field == $param` equality constraints usable for
    /// subscription partitioning (see [`Expr::equality_param_fields`]).
    pub fn equality_param_fields(&self) -> Vec<(String, String)> {
        self.predicate.equality_param_fields()
    }
}

impl fmt::Display for ChannelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", p.name, p.ty)?;
        }
        write!(
            f,
            ") from {} r where {} select ",
            self.dataset, self.predicate
        )?;
        match &self.select {
            SelectClause::All => write!(f, "r")?,
            SelectClause::Fields(fields) => {
                for (i, path) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "r.{}", path.join("."))?;
                }
            }
        }
        if let ChannelMode::Repetitive { period } = self.mode {
            write!(f, " every {}s", period.as_secs_f64())?;
        }
        Ok(())
    }
}

/// A set of `name -> value` bindings supplied when subscribing to a
/// parameterized channel.
///
/// # Examples
///
/// ```
/// use bad_query::ParamBindings;
/// use bad_types::DataValue;
///
/// let mut p = ParamBindings::new();
/// p.bind("kind", DataValue::from("flood"));
/// p.bind("severity", DataValue::from(3i64));
/// // The canonical key is order independent.
/// let mut q = ParamBindings::new();
/// q.bind("severity", DataValue::from(3i64));
/// q.bind("kind", DataValue::from("flood"));
/// assert_eq!(p.canonical_key(), q.canonical_key());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamBindings {
    values: BTreeMap<String, DataValue>,
}

impl ParamBindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates bindings from `(name, value)` pairs.
    pub fn from_pairs<K, I>(pairs: I) -> Self
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, DataValue)>,
    {
        Self {
            values: pairs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// Binds (or rebinds) a parameter.
    pub fn bind(&mut self, name: impl Into<String>, value: DataValue) -> &mut Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Looks up a bound value.
    pub fn get(&self, name: &str) -> Option<&DataValue> {
        self.values.get(name)
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DataValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A deterministic, order-independent key identifying these bindings.
    ///
    /// The broker keys backend subscriptions by `(channel, canonical_key)`
    /// to merge identical frontend subscriptions, as described in
    /// Section III-C of the paper.
    pub fn canonical_key(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_json_string());
        }
        out
    }

    /// Verifies the bindings against a parameter declaration list.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::InvalidArgument`] when a declared parameter is
    /// unbound or extraneous, and [`BadError::Type`] when a bound value
    /// does not conform to its declared type.
    pub fn check_against(&self, defs: &[ParamDef]) -> Result<()> {
        for def in defs {
            let value = self.values.get(&def.name).ok_or_else(|| {
                BadError::InvalidArgument(format!("missing binding for `${}`", def.name))
            })?;
            let ok = match def.ty {
                ParamType::String => value.as_str().is_some(),
                ParamType::Int => value.as_i64().is_some(),
                ParamType::Float => value.as_f64().is_some(),
                ParamType::Bool => value.as_bool().is_some(),
                ParamType::Point => bad_types::GeoPoint::from_value(value).is_some(),
                ParamType::Region => bad_types::BoundingBox::from_value(value).is_some(),
            };
            if !ok {
                return Err(BadError::Type(format!(
                    "binding for `${}` is not a {}",
                    def.name, def.ty
                )));
            }
        }
        if self.values.len() > defs.len() {
            let declared: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            let extra: Vec<&str> = self
                .values
                .keys()
                .map(String::as_str)
                .filter(|k| !declared.contains(k))
                .collect();
            return Err(BadError::InvalidArgument(format!(
                "extraneous parameter bindings: {}",
                extra.join(", ")
            )));
        }
        Ok(())
    }
}

impl<K: Into<String>> FromIterator<(K, DataValue)> for ParamBindings {
    fn from_iter<I: IntoIterator<Item = (K, DataValue)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_types::{BoundingBox, GeoPoint};

    fn spec() -> ChannelSpec {
        ChannelSpec::parse(
            "channel Near(etype: string, area: region) from Reports r \
             where r.kind == $etype and within(r.location, $area) select r",
        )
        .unwrap()
    }

    fn bindings() -> ParamBindings {
        let area = BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0));
        ParamBindings::from_pairs([
            ("etype", DataValue::from("fire")),
            ("area", area.to_value()),
        ])
    }

    fn report(kind: &str, lat: f64, lon: f64) -> DataValue {
        DataValue::object([
            ("kind", DataValue::from(kind)),
            ("location", GeoPoint::new(lat, lon).to_value()),
        ])
    }

    #[test]
    fn matches_records() {
        let spec = spec();
        let params = bindings();
        assert!(spec.matches(&report("fire", 0.5, 0.5), &params).unwrap());
        assert!(!spec.matches(&report("flood", 0.5, 0.5), &params).unwrap());
        assert!(!spec.matches(&report("fire", 2.0, 0.5), &params).unwrap());
    }

    #[test]
    fn evaluate_projects() {
        let spec = ChannelSpec::parse(
            "channel C(k: string) from DS r where r.kind == $k select r.kind, r.sev",
        )
        .unwrap();
        let params = ParamBindings::from_pairs([("k", DataValue::from("x"))]);
        let rec = DataValue::object([
            ("kind", DataValue::from("x")),
            ("sev", DataValue::from(2i64)),
            ("noise", DataValue::from("dropped")),
        ]);
        let out = spec.evaluate(&rec, &params).unwrap().unwrap();
        assert_eq!(out.get("kind").and_then(DataValue::as_str), Some("x"));
        assert_eq!(out.get("sev").and_then(DataValue::as_i64), Some(2));
        assert!(out.get("noise").is_none());
    }

    #[test]
    fn select_projects_missing_as_null() {
        let clause = SelectClause::Fields(vec![vec!["absent".into()]]);
        let rec = DataValue::object([("present", DataValue::from(1i64))]);
        let out = clause.project(&rec);
        assert!(out.get("absent").unwrap().is_null());
    }

    #[test]
    fn binding_validation() {
        let spec = spec();
        // Missing area.
        let p = ParamBindings::from_pairs([("etype", DataValue::from("fire"))]);
        assert!(matches!(
            spec.matches(&report("fire", 0.5, 0.5), &p),
            Err(BadError::InvalidArgument(_))
        ));
        // Wrong type for area.
        let p = ParamBindings::from_pairs([
            ("etype", DataValue::from("fire")),
            ("area", DataValue::from(1i64)),
        ]);
        assert!(matches!(
            spec.matches(&report("fire", 0.5, 0.5), &p),
            Err(BadError::Type(_))
        ));
        // Extraneous binding.
        let mut p = bindings();
        p.bind("ghost", DataValue::from(1i64));
        assert!(matches!(
            spec.matches(&report("fire", 0.5, 0.5), &p),
            Err(BadError::InvalidArgument(_))
        ));
    }

    #[test]
    fn canonical_key_distinguishes_values() {
        let a = ParamBindings::from_pairs([("k", DataValue::from("x"))]);
        let b = ParamBindings::from_pairs([("k", DataValue::from("y"))]);
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.canonical_key(), "k=\"x\"");
    }

    #[test]
    fn non_boolean_predicate_is_type_error() {
        let spec = ChannelSpec::parse("channel C() from DS r where r.count + 1 select r").unwrap();
        let rec = DataValue::object([("count", DataValue::from(1i64))]);
        assert!(matches!(
            spec.matches(&rec, &ParamBindings::new()),
            Err(BadError::Type(_))
        ));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let spec = spec();
        let reparsed = ChannelSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(reparsed.name(), spec.name());
        assert_eq!(reparsed.predicate(), spec.predicate());
    }

    #[test]
    fn equality_fields_exposed() {
        let spec = spec();
        assert_eq!(
            spec.equality_param_fields(),
            vec![("kind".to_string(), "etype".to_string())]
        );
    }
}
