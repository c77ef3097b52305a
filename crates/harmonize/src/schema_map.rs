//! Clio-lite schema mappings.
//!
//! §2.2: Splash "uses Clio++, an extension of the Clio schema mapping tool
//! … to allow users to graphically define a schema mapping", handling
//! "'format' discrepancies between source-model outputs and target-model
//! inputs at any given point of simulated time". A GUI is out of scope;
//! what matters architecturally is the declarative mapping object that a
//! front end produces and the composite-model runtime compiles into an
//! efficient per-tick transform. [`SchemaMapping`] is that object:
//! per-target-field rules (copy, linear unit conversion, sum/mean of
//! several source channels, constants), validated against a source series
//! and compiled to index-based row transforms.

use crate::series::TimeSeries;
use crate::HarmonizeError;

/// How one target field is derived from source channels.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldSource {
    /// Copy a source channel unchanged.
    Copy {
        /// Source channel name.
        channel: String,
    },
    /// Affine transform `scale·x + offset` — unit conversions (°F→°C,
    /// lbs→kg, weekly→daily rates).
    Linear {
        /// Source channel name.
        channel: String,
        /// Multiplicative factor.
        scale: f64,
        /// Additive offset.
        offset: f64,
    },
    /// Sum of several source channels (e.g. regional totals).
    Sum {
        /// Source channel names.
        channels: Vec<String>,
    },
    /// Mean of several source channels.
    Mean {
        /// Source channel names.
        channels: Vec<String>,
    },
    /// A constant filler value (for target fields with no source analogue).
    Constant(f64),
}

impl FieldSource {
    /// The source channels this rule reads.
    pub(crate) fn referenced(&self) -> Vec<&str> {
        match self {
            FieldSource::Copy { channel } | FieldSource::Linear { channel, .. } => {
                vec![channel.as_str()]
            }
            FieldSource::Sum { channels } | FieldSource::Mean { channels } => {
                channels.iter().map(|s| s.as_str()).collect()
            }
            FieldSource::Constant(_) => vec![],
        }
    }
}

/// A declarative schema mapping: ordered `(target field, rule)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemaMapping {
    fields: Vec<(String, FieldSource)>,
}

impl SchemaMapping {
    /// Start an empty mapping.
    pub fn new() -> Self {
        SchemaMapping::default()
    }

    /// Add a target field.
    pub fn field(mut self, target: impl Into<String>, source: FieldSource) -> Self {
        self.fields.push((target.into(), source));
        self
    }

    /// The target field names in order.
    pub fn target_fields(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The source channels the mapping needs; used for automatic mismatch
    /// detection when a composite model is assembled.
    pub fn required_channels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .fields
            .iter()
            .flat_map(|(_, s)| s.referenced())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Channels required by the mapping but missing from the source — the
    /// "automatic detection of data mismatches" step of model registration.
    fn missing_channels<'a>(&'a self, source: &TimeSeries) -> Vec<&'a str> {
        self.required_channels()
            .into_iter()
            .filter(|c| source.channel_index(c).is_err())
            .collect()
    }

    /// Apply the mapping tick-by-tick, producing the target-format series.
    pub fn apply(&self, source: &TimeSeries) -> crate::Result<TimeSeries> {
        if self.fields.is_empty() {
            return Err(HarmonizeError::transform("schema mapping has no fields"));
        }
        let missing = self.missing_channels(source);
        if !missing.is_empty() {
            return Err(HarmonizeError::transform(format!(
                "source is missing channels required by the mapping: {}",
                missing.join(", ")
            )));
        }
        // Compile: resolve names to indices once.
        enum Compiled {
            Copy(usize),
            Linear(usize, f64, f64),
            Sum(Vec<usize>),
            Mean(Vec<usize>),
            Constant(f64),
        }
        let compiled: Vec<Compiled> = self
            .fields
            .iter()
            .map(|(_, s)| {
                Ok(match s {
                    FieldSource::Copy { channel } => Compiled::Copy(source.channel_index(channel)?),
                    FieldSource::Linear {
                        channel,
                        scale,
                        offset,
                    } => Compiled::Linear(source.channel_index(channel)?, *scale, *offset),
                    FieldSource::Sum { channels } => Compiled::Sum(
                        channels
                            .iter()
                            .map(|c| source.channel_index(c))
                            .collect::<crate::Result<_>>()?,
                    ),
                    FieldSource::Mean { channels } => Compiled::Mean(
                        channels
                            .iter()
                            .map(|c| source.channel_index(c))
                            .collect::<crate::Result<_>>()?,
                    ),
                    FieldSource::Constant(v) => Compiled::Constant(*v),
                })
            })
            .collect::<crate::Result<_>>()?;

        let data: Vec<Vec<f64>> = source
            .data()
            .iter()
            .map(|row| {
                compiled
                    .iter()
                    .map(|c| match c {
                        Compiled::Copy(i) => row[*i],
                        Compiled::Linear(i, a, b) => a * row[*i] + b,
                        Compiled::Sum(idx) => idx.iter().map(|&i| row[i]).sum(),
                        Compiled::Mean(idx) => {
                            idx.iter().map(|&i| row[i]).sum::<f64>() / idx.len() as f64
                        }
                        Compiled::Constant(v) => *v,
                    })
                    .collect()
            })
            .collect();

        TimeSeries::new(
            self.fields.iter().map(|(n, _)| n.clone()).collect(),
            source.times().to_vec(),
            data,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weather() -> TimeSeries {
        TimeSeries::new(
            vec!["temp_f".into(), "rain_east".into(), "rain_west".into()],
            vec![0.0, 1.0],
            vec![vec![32.0, 1.0, 3.0], vec![212.0, 2.0, 4.0]],
        )
        .unwrap()
    }

    #[test]
    fn copy_linear_sum_mean_constant() {
        let m = SchemaMapping::new()
            .field(
                "temp_c",
                FieldSource::Linear {
                    channel: "temp_f".into(),
                    scale: 5.0 / 9.0,
                    offset: -160.0 / 9.0,
                },
            )
            .field(
                "rain_total",
                FieldSource::Sum {
                    channels: vec!["rain_east".into(), "rain_west".into()],
                },
            )
            .field(
                "rain_mean",
                FieldSource::Mean {
                    channels: vec!["rain_east".into(), "rain_west".into()],
                },
            )
            .field(
                "raw_f",
                FieldSource::Copy {
                    channel: "temp_f".into(),
                },
            )
            .field("version", FieldSource::Constant(2.0));
        let out = m.apply(&weather()).unwrap();
        assert_eq!(
            out.channels(),
            &["temp_c", "rain_total", "rain_mean", "raw_f", "version"]
        );
        assert!((out.channel("temp_c").unwrap()[0] - 0.0).abs() < 1e-10);
        assert!((out.channel("temp_c").unwrap()[1] - 100.0).abs() < 1e-10);
        assert_eq!(out.channel("rain_total").unwrap(), vec![4.0, 6.0]);
        assert_eq!(out.channel("rain_mean").unwrap(), vec![2.0, 3.0]);
        assert_eq!(out.channel("raw_f").unwrap(), vec![32.0, 212.0]);
        assert_eq!(out.channel("version").unwrap(), vec![2.0, 2.0]);
        // Times pass through.
        assert_eq!(out.times(), weather().times());
    }

    #[test]
    fn mismatch_detection() {
        let m = SchemaMapping::new()
            .field(
                "x",
                FieldSource::Copy {
                    channel: "temp_f".into(),
                },
            )
            .field(
                "y",
                FieldSource::Sum {
                    channels: vec!["rain_east".into(), "humidity".into()],
                },
            );
        let missing = m.missing_channels(&weather());
        assert_eq!(missing, vec!["humidity"]);
        assert!(m.apply(&weather()).is_err());
    }

    #[test]
    fn required_channels_deduped_and_sorted() {
        let m = SchemaMapping::new()
            .field(
                "a",
                FieldSource::Copy {
                    channel: "temp_f".into(),
                },
            )
            .field(
                "b",
                FieldSource::Linear {
                    channel: "temp_f".into(),
                    scale: 1.0,
                    offset: 0.0,
                },
            )
            .field("c", FieldSource::Constant(1.0));
        assert_eq!(m.required_channels(), vec!["temp_f"]);
    }

    #[test]
    fn empty_mapping_rejected() {
        assert!(SchemaMapping::new().apply(&weather()).is_err());
    }
}
