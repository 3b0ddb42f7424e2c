#include "tc/policy/ucon.h"

#include <algorithm>

#include "tc/crypto/sha256.h"

namespace tc::policy {
namespace {

void EncodePolicyValue(BinaryWriter& w, const PolicyValue& v) {
  w.PutU8(static_cast<uint8_t>(v.index()));
  switch (v.index()) {
    case 0:
      w.PutBool(std::get<bool>(v));
      break;
    case 1:
      w.PutI64(std::get<int64_t>(v));
      break;
    case 2:
      w.PutDouble(std::get<double>(v));
      break;
    case 3:
      w.PutString(std::get<std::string>(v));
      break;
  }
}

Result<PolicyValue> DecodePolicyValue(BinaryReader& r) {
  TC_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  switch (tag) {
    case 0: {
      TC_ASSIGN_OR_RETURN(bool v, r.GetBool());
      return PolicyValue(v);
    }
    case 1: {
      TC_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
      return PolicyValue(v);
    }
    case 2: {
      TC_ASSIGN_OR_RETURN(double v, r.GetDouble());
      return PolicyValue(v);
    }
    case 3: {
      TC_ASSIGN_OR_RETURN(std::string v, r.GetString());
      return PolicyValue(std::move(v));
    }
    default:
      return Status::Corruption("bad policy value tag");
  }
}

/// Three-way compare of same-type values; int/double compare numerically.
Result<int> ComparePolicyValues(const PolicyValue& a, const PolicyValue& b) {
  auto as_num = [](const PolicyValue& v) -> Result<double> {
    if (std::holds_alternative<int64_t>(v)) {
      return static_cast<double>(std::get<int64_t>(v));
    }
    if (std::holds_alternative<double>(v)) return std::get<double>(v);
    return Status::InvalidArgument("not numeric");
  };
  auto na = as_num(a);
  auto nb = as_num(b);
  if (na.ok() && nb.ok()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  if (a.index() != b.index()) {
    return Status::InvalidArgument("attribute type mismatch");
  }
  if (std::holds_alternative<bool>(a)) {
    return static_cast<int>(std::get<bool>(a)) -
           static_cast<int>(std::get<bool>(b));
  }
  const std::string& sa = std::get<std::string>(a);
  const std::string& sb = std::get<std::string>(b);
  if (sa < sb) return -1;
  if (sa > sb) return 1;
  return 0;
}

}  // namespace

void AttributeCondition::Encode(BinaryWriter& w) const {
  w.PutString(attribute);
  w.PutU8(static_cast<uint8_t>(op));
  EncodePolicyValue(w, value);
}

Result<AttributeCondition> AttributeCondition::Decode(BinaryReader& r) {
  AttributeCondition c;
  TC_ASSIGN_OR_RETURN(c.attribute, r.GetString());
  TC_ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
  if (op > static_cast<uint8_t>(ConditionOp::kGe)) {
    return Status::Corruption("bad condition op");
  }
  c.op = static_cast<ConditionOp>(op);
  TC_ASSIGN_OR_RETURN(c.value, DecodePolicyValue(r));
  return c;
}

void UsageRule::Encode(BinaryWriter& w) const {
  w.PutString(id);
  w.PutVarint(subjects.size());
  for (const auto& s : subjects) w.PutString(s);
  w.PutVarint(rights.size());
  for (Right right : rights) w.PutU8(static_cast<uint8_t>(right));
  w.PutVarint(conditions.size());
  for (const auto& c : conditions) c.Encode(w);
  w.PutI64(not_before);
  w.PutI64(not_after);
  w.PutU64(max_uses);
  w.PutVarint(obligations.size());
  for (ObligationType o : obligations) w.PutU8(static_cast<uint8_t>(o));
}

Result<UsageRule> UsageRule::Decode(BinaryReader& r) {
  UsageRule rule;
  TC_ASSIGN_OR_RETURN(rule.id, r.GetString());
  TC_ASSIGN_OR_RETURN(uint64_t ns, r.GetVarint());
  for (uint64_t i = 0; i < ns; ++i) {
    TC_ASSIGN_OR_RETURN(std::string s, r.GetString());
    rule.subjects.push_back(std::move(s));
  }
  TC_ASSIGN_OR_RETURN(uint64_t nr, r.GetVarint());
  for (uint64_t i = 0; i < nr; ++i) {
    TC_ASSIGN_OR_RETURN(uint8_t right, r.GetU8());
    rule.rights.push_back(static_cast<Right>(right));
  }
  TC_ASSIGN_OR_RETURN(uint64_t nc, r.GetVarint());
  for (uint64_t i = 0; i < nc; ++i) {
    TC_ASSIGN_OR_RETURN(AttributeCondition c, AttributeCondition::Decode(r));
    rule.conditions.push_back(std::move(c));
  }
  TC_ASSIGN_OR_RETURN(rule.not_before, r.GetI64());
  TC_ASSIGN_OR_RETURN(rule.not_after, r.GetI64());
  TC_ASSIGN_OR_RETURN(rule.max_uses, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t no, r.GetVarint());
  for (uint64_t i = 0; i < no; ++i) {
    TC_ASSIGN_OR_RETURN(uint8_t o, r.GetU8());
    rule.obligations.push_back(static_cast<ObligationType>(o));
  }
  return rule;
}

Bytes Policy::Serialize() const {
  BinaryWriter w;
  w.PutString("tc.policy.v1");
  w.PutString(id);
  w.PutString(owner);
  w.PutVarint(rules.size());
  for (const UsageRule& rule : rules) rule.Encode(w);
  return w.Take();
}

Result<Policy> Policy::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  TC_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  if (magic != "tc.policy.v1") return Status::Corruption("bad policy magic");
  Policy p;
  TC_ASSIGN_OR_RETURN(p.id, r.GetString());
  TC_ASSIGN_OR_RETURN(p.owner, r.GetString());
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(UsageRule rule, UsageRule::Decode(r));
    p.rules.push_back(std::move(rule));
  }
  return p;
}

Bytes Policy::Hash() const { return crypto::Sha256Hash(Serialize()); }

std::string DecisionPoint::StateKey(const std::string& policy_id,
                                    const std::string& rule_id,
                                    const std::string& subject) {
  return policy_id + "\x1f" + rule_id + "\x1f" + subject;
}

uint64_t DecisionPoint::UseCount(const std::string& policy_id,
                                 const std::string& rule_id,
                                 const std::string& subject) const {
  auto it = use_counts_.find(StateKey(policy_id, rule_id, subject));
  return it == use_counts_.end() ? 0 : it->second;
}

Decision DecisionPoint::EvaluateInternal(const Policy& policy,
                                         const AccessRequest& request,
                                         bool consume) {
  std::string deny_reason = "no matching rule";
  for (const UsageRule& rule : policy.rules) {
    // Authorization: subject list.
    if (!rule.subjects.empty() &&
        std::find(rule.subjects.begin(), rule.subjects.end(),
                  request.subject) == rule.subjects.end()) {
      continue;
    }
    // Authorization: right.
    if (std::find(rule.rights.begin(), rule.rights.end(), request.right) ==
        rule.rights.end()) {
      continue;
    }
    // Conditions: time window.
    if (request.now < rule.not_before || request.now > rule.not_after) {
      deny_reason = "rule " + rule.id + ": outside validity window";
      continue;
    }
    // Conditions: attributes.
    bool conditions_ok = true;
    for (const AttributeCondition& cond : rule.conditions) {
      auto attr = request.attributes.find(cond.attribute);
      if (attr == request.attributes.end()) {
        conditions_ok = false;
        deny_reason = "rule " + rule.id + ": missing attribute " +
                      cond.attribute;
        break;
      }
      auto cmp = ComparePolicyValues(attr->second, cond.value);
      if (!cmp.ok()) {
        conditions_ok = false;
        deny_reason = "rule " + rule.id + ": " + cmp.status().message();
        break;
      }
      bool ok = false;
      switch (cond.op) {
        case ConditionOp::kEq:
          ok = *cmp == 0;
          break;
        case ConditionOp::kNe:
          ok = *cmp != 0;
          break;
        case ConditionOp::kLt:
          ok = *cmp < 0;
          break;
        case ConditionOp::kLe:
          ok = *cmp <= 0;
          break;
        case ConditionOp::kGt:
          ok = *cmp > 0;
          break;
        case ConditionOp::kGe:
          ok = *cmp >= 0;
          break;
      }
      if (!ok) {
        conditions_ok = false;
        deny_reason = "rule " + rule.id + ": condition on " + cond.attribute +
                      " not satisfied";
        break;
      }
    }
    if (!conditions_ok) continue;
    // Mutability: usage counter.
    if (rule.max_uses > 0) {
      uint64_t used = UseCount(policy.id, rule.id, request.subject);
      if (used >= rule.max_uses) {
        deny_reason = "rule " + rule.id + ": usage quota exhausted";
        continue;
      }
    }
    if (consume && rule.max_uses > 0) {
      ++use_counts_[StateKey(policy.id, rule.id, request.subject)];
    }
    return Decision{true, rule.id, rule.obligations, ""};
  }
  return Decision{false, "", {}, deny_reason};
}

Decision DecisionPoint::EvaluateAndConsume(const Policy& policy,
                                           const AccessRequest& request) {
  return EvaluateInternal(policy, request, /*consume=*/true);
}

Decision DecisionPoint::Peek(const Policy& policy,
                             const AccessRequest& request) const {
  return const_cast<DecisionPoint*>(this)->EvaluateInternal(policy, request,
                                                            /*consume=*/false);
}

Bytes DecisionPoint::ExportState() const {
  BinaryWriter w;
  w.PutVarint(use_counts_.size());
  for (const auto& [key, count] : use_counts_) {
    w.PutString(key);
    w.PutU64(count);
  }
  return w.Take();
}

Status DecisionPoint::ImportState(const Bytes& data) {
  BinaryReader r(data);
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  std::map<std::string, uint64_t> counts;
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(std::string key, r.GetString());
    TC_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
    counts[key] = count;
  }
  use_counts_ = std::move(counts);
  return Status::OK();
}

}  // namespace tc::policy
