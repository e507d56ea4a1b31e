//! The JSON value tree, kept at this path for existing importers.
pub use picl_telemetry::json::Value;
