#include "tc/cell/vault_baseline.h"

namespace tc::cell {

Result<std::string> CentralizedVault::StoreDocument(
    const std::string& owner, const std::string& title, const Bytes& content,
    const policy::Policy& policy) {
  std::string doc_id = "vault-" + std::to_string(next_id_++);
  std::string blob_id = "vault/" + owner + "/" + doc_id;
  // Plaintext at the provider — that is the point of the baseline. The
  // blob id names the one logical write, so it doubles as its token.
  TC_RETURN_IF_ERROR(cloud_->PutBlobBatchRpc({{blob_id, content}}, {blob_id})
                         .status);
  docs_[doc_id] = VaultDoc{owner, title, blob_id, policy};
  return doc_id;
}

Result<Bytes> CentralizedVault::ReadDocument(
    const std::string& doc_id, const std::string& subject,
    const policy::Attributes& attributes) {
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) return Status::NotFound("no such document");
  if (honour_policies_) {
    policy::AccessRequest request{subject, policy::Right::kRead, attributes,
                                  clock_->Now()};
    policy::Decision decision =
        pdp_.EvaluateAndConsume(it->second.policy, request);
    if (!decision.allowed) {
      return Status::PermissionDenied(decision.reason);
    }
  }
  return cloud_->GetBlob(it->second.blob_id);
}

std::vector<std::tuple<std::string, std::string, Bytes>>
CentralizedVault::BreachAll() const {
  std::vector<std::tuple<std::string, std::string, Bytes>> loot;
  for (const auto& [doc_id, doc] : docs_) {
    auto content = cloud_->GetBlob(doc.blob_id);
    if (content.ok()) {
      loot.emplace_back(doc.owner, doc_id, *content);
    }
  }
  return loot;
}

}  // namespace tc::cell
