// Error types shared across the query-cache libraries.
//
// Following the C++ Core Guidelines (E.2), errors that a caller cannot
// reasonably be expected to handle locally are reported as exceptions.
// Each subsystem throws a subclass of `qc::Error` so callers can catch at
// the granularity they care about.
#pragma once

#include <stdexcept>
#include <string>

namespace qc {

/// Base class for all errors raised by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised on malformed SQL text (lexing/parsing failures).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

/// Raised when a parsed query cannot be resolved against the catalog
/// (unknown table/column, type mismatch, unbound parameter).
class BindError : public Error {
 public:
  explicit BindError(const std::string& what) : Error("bind error: " + what) {}
};

/// Raised on storage-layer misuse (unknown row id, duplicate table, ...).
class StorageError : public Error {
 public:
  explicit StorageError(const std::string& what) : Error("storage error: " + what) {}
};

/// Raised on cache-layer misuse or I/O failure (disk store paths, ...).
class CacheError : public Error {
 public:
  explicit CacheError(const std::string& what) : Error("cache error: " + what) {}
};

/// Raised on malformed bytes in the shared binary encoding (common/wire.h):
/// QCP/1 frames and CDC records off the network, spill payloads and
/// durable tags off disk. The server answers it with MALFORMED_FRAME.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error("protocol error: " + what) {}
};

}  // namespace qc
