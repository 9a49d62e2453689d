#include "serve/protocol.h"

#include <cmath>
#include <limits>

namespace ovs::serve {

namespace {

/// Reads an optional non-negative integer field; `def` when absent.
Status ReadIntField(const JsonValue& obj, const std::string& key, int def,
                    int* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    *out = def;
    return Status::Ok();
  }
  if (v->kind != JsonValue::Kind::kNumber || !std::isfinite(v->number_value) ||
      v->number_value < 0 || v->number_value > 1e9 ||
      v->number_value != std::floor(v->number_value)) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be a non-negative integer");
  }
  *out = static_cast<int>(v->number_value);
  return Status::Ok();
}

Status ReadStringField(const JsonValue& obj, const std::string& key,
                       bool required, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    if (required) {
      return Status::InvalidArgument("missing required field '" + key + "'");
    }
    out->clear();
    return Status::Ok();
  }
  if (v->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  *out = v->string_value;
  return Status::Ok();
}

/// Rectangular matrix of numbers; `null` cells become NaN (dark sensors).
Status ReadMatrixField(const JsonValue& obj, const std::string& key,
                       DMat* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kArray || v->array.empty()) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be a non-empty array of rows");
  }
  const size_t rows = v->array.size();
  size_t cols = 0;
  for (size_t r = 0; r < rows; ++r) {
    const JsonValue& row = v->array[r];
    if (row.kind != JsonValue::Kind::kArray || row.array.empty()) {
      return Status::InvalidArgument("row " + std::to_string(r) + " of '" +
                                     key + "' must be a non-empty array");
    }
    if (r == 0) {
      cols = row.array.size();
    } else if (row.array.size() != cols) {
      return Status::InvalidArgument("'" + key + "' rows have ragged lengths");
    }
  }
  DMat m(static_cast<int>(rows), static_cast<int>(cols));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const JsonValue& cell = v->array[r].array[c];
      if (cell.kind == JsonValue::Kind::kNull) {
        m.at(static_cast<int>(r), static_cast<int>(c)) =
            std::numeric_limits<double>::quiet_NaN();
      } else if (cell.kind == JsonValue::Kind::kNumber) {
        m.at(static_cast<int>(r), static_cast<int>(c)) = cell.number_value;
      } else {
        return Status::InvalidArgument("'" + key +
                                       "' cells must be numbers or null");
      }
    }
  }
  *out = std::move(m);
  return Status::Ok();
}

void AppendMatrix(const DMat& m, std::string* out) {
  out->push_back('[');
  for (int r = 0; r < m.rows(); ++r) {
    if (r > 0) out->push_back(',');
    out->push_back('[');
    for (int c = 0; c < m.cols(); ++c) {
      if (c > 0) out->push_back(',');
      *out += JsonNumber(m.at(r, c));
    }
    out->push_back(']');
  }
  out->push_back(']');
}

}  // namespace

bool IsRetryable(StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

StatusOr<Request> ParseRequest(const std::string& line) {
  ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (doc.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  RETURN_IF_ERROR(ReadStringField(doc, "id", /*required=*/true, &req.id));
  std::string method;
  RETURN_IF_ERROR(ReadStringField(doc, "method", /*required=*/true, &method));
  if (method == "recover") {
    req.method = Method::kRecover;
  } else if (method == "health") {
    req.method = Method::kHealth;
  } else if (method == "reload") {
    req.method = Method::kReload;
  } else if (method == "list_cities") {
    req.method = Method::kListCities;
  } else {
    return Status::InvalidArgument("unknown method '" + method + "'");
  }

  if (req.method == Method::kRecover || req.method == Method::kReload) {
    RETURN_IF_ERROR(ReadStringField(doc, "city", /*required=*/true, &req.city));
  }
  if (req.method == Method::kReload) {
    RETURN_IF_ERROR(ReadStringField(doc, "path", /*required=*/true, &req.path));
  }
  if (req.method == Method::kRecover) {
    int seed = 0;
    RETURN_IF_ERROR(ReadIntField(doc, "seed", 0, &seed));
    req.seed = static_cast<uint32_t>(seed);
    RETURN_IF_ERROR(ReadIntField(doc, "deadline_ms", 0, &req.deadline_ms));
    RETURN_IF_ERROR(
        ReadIntField(doc, "recovery_epochs", 0, &req.recovery_epochs));
    RETURN_IF_ERROR(ReadIntField(doc, "restarts", 0, &req.restarts));
    RETURN_IF_ERROR(ReadMatrixField(doc, "observed_speed", &req.observed_speed));
  }
  return req;
}

std::string SerializeResponse(const Response& r) {
  std::string out;
  out.reserve(64);
  out += "{\"id\":\"" + JsonEscape(r.id) + "\"";
  if (!r.status.ok()) {
    out += ",\"ok\":false,\"error\":{\"code\":\"";
    out += StatusCodeToString(r.status.code());
    out += "\",\"message\":\"" + JsonEscape(r.status.message());
    out += "\",\"retryable\":";
    out += IsRetryable(r.status.code()) ? "true" : "false";
    out += "}}";
    return out;
  }
  out += ",\"ok\":true";
  if (!r.city.empty()) {
    out += ",\"city\":\"" + JsonEscape(r.city) + "\"";
    out += ",\"snapshot_version\":" + std::to_string(r.snapshot_version);
  }
  if (r.has_tod) {
    out += ",\"loss\":" + JsonNumber(r.loss);
    out += ",\"tod\":";
    AppendMatrix(r.tod, &out);
  }
  if (r.has_health) {
    out += ",\"accepting\":";
    out += r.accepting ? "true" : "false";
    out += ",\"cities\":[";
    for (size_t i = 0; i < r.health.size(); ++i) {
      const CityHealth& h = r.health[i];
      if (i > 0) out.push_back(',');
      out += "{\"city\":\"" + JsonEscape(h.city) + "\"";
      out += ",\"snapshot_version\":" + std::to_string(h.snapshot_version);
      out += ",\"queue_depth\":" + std::to_string(h.queue_depth);
      out += ",\"queue_capacity\":" + std::to_string(h.queue_capacity) + "}";
    }
    out += "]";
  }
  if (r.has_cities) {
    out += ",\"cities\":[";
    for (size_t i = 0; i < r.cities.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('"');
      out += JsonEscape(r.cities[i]);
      out.push_back('"');
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace ovs::serve
