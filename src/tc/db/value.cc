#include "tc/db/value.h"

#include <cmath>

namespace tc::db {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kBytes:
      return "bytes";
    case ValueType::kTimestamp:
      return "timestamp";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(repr_.index());
}

Result<double> Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kTimestamp:
      return static_cast<double>(AsTimestamp());
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return Status::InvalidArgument(
          std::string("value of type ") + std::string(ValueTypeName(type())) +
          " is not numeric");
  }
}

void Value::Encode(BinaryWriter& w) const {
  w.PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w.PutBool(AsBool());
      break;
    case ValueType::kInt64:
      w.PutI64(AsInt64());
      break;
    case ValueType::kDouble:
      w.PutDouble(AsDouble());
      break;
    case ValueType::kString:
      w.PutString(AsString());
      break;
    case ValueType::kBytes:
      w.PutBytes(AsBytes());
      break;
    case ValueType::kTimestamp:
      w.PutI64(AsTimestamp());
      break;
  }
}

Result<Value> Value::Decode(BinaryReader& r) {
  TC_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      TC_ASSIGN_OR_RETURN(bool v, r.GetBool());
      return Value::Bool(v);
    }
    case ValueType::kInt64: {
      TC_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
      return Value::Int64(v);
    }
    case ValueType::kDouble: {
      TC_ASSIGN_OR_RETURN(double v, r.GetDouble());
      return Value::Double(v);
    }
    case ValueType::kString: {
      TC_ASSIGN_OR_RETURN(std::string v, r.GetString());
      return Value::String(std::move(v));
    }
    case ValueType::kBytes: {
      TC_ASSIGN_OR_RETURN(Bytes v, r.GetBytes());
      return Value::Blob(std::move(v));
    }
    case ValueType::kTimestamp: {
      TC_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
      return Value::TimestampVal(v);
    }
  }
  return Status::Corruption("unknown value type tag");
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  // Numeric types compare across Int64/Double.
  auto numeric = [](const Value& v) {
    return v.type() == ValueType::kInt64 || v.type() == ValueType::kDouble;
  };
  if (numeric(a) && numeric(b)) {
    double x = *a.AsNumeric();
    double y = *b.AsNumeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.type() != b.type()) {
    return Status::InvalidArgument("cannot compare values of different types");
  }
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return static_cast<int>(a.AsBool()) - static_cast<int>(b.AsBool());
    case ValueType::kTimestamp: {
      if (a.AsTimestamp() < b.AsTimestamp()) return -1;
      if (a.AsTimestamp() > b.AsTimestamp()) return 1;
      return 0;
    }
    case ValueType::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
    case ValueType::kBytes: {
      if (a.AsBytes() < b.AsBytes()) return -1;
      if (a.AsBytes() == b.AsBytes()) return 0;
      return 1;
    }
    default:
      return Status::InvalidArgument("unsupported comparison");
  }
}

}  // namespace tc::db
