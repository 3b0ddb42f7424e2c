#include "tc/db/keyword_index.h"

#include <algorithm>
#include <cctype>
#include <string>

namespace tc::db {

KeywordIndex::KeywordIndex(storage::LogStore* store) : store_(store) {}

std::vector<std::string> KeywordIndex::Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

namespace {

// A tail rewrite per insert costs at most this much, and a list of up to
// ~500 dense ids stays a single record. Small pages lower it further (see
// SealBytes) so a sealed chunk always fits one record.
constexpr size_t kTailSealBytes = 512;

bool Contains(const std::vector<uint64_t>& ids, uint64_t id) {
  return std::binary_search(ids.begin(), ids.end(), id);
}

bool Erase(std::vector<uint64_t>& ids, uint64_t id) {
  auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos == ids.end() || *pos != id) return false;
  ids.erase(pos);
  return true;
}

}  // namespace

std::string KeywordIndex::TermKey(const std::string& term) {
  return "k/" + term;
}

// Tokens are alphanumeric, so no head key can take this form.
std::string KeywordIndex::ChunkKey(const std::string& term, uint64_t chunk) {
  return "k/" + term + "/" + std::to_string(chunk);
}

size_t KeywordIndex::SealBytes() const {
  return std::min(kTailSealBytes, store_->MaxValueSize() / 2);
}

Bytes KeywordIndex::EncodePostings(const std::vector<uint64_t>& ids) {
  BinaryWriter w;
  w.PutVarint(ids.size());
  uint64_t prev = 0;
  for (uint64_t id : ids) {
    w.PutVarint(id - prev);
    prev = id;
  }
  return w.Take();
}

Result<std::vector<uint64_t>> KeywordIndex::DecodePostings(BinaryReader& r) {
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  std::vector<uint64_t> ids;
  ids.reserve(n);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(uint64_t delta, r.GetVarint());
    prev += delta;
    ids.push_back(prev);
  }
  return ids;
}

Bytes KeywordIndex::EncodeHead(const Head& head) {
  Bytes out = EncodePostings(head.tail);
  if (head.chunks > 0) {
    BinaryWriter w;
    w.PutVarint(head.chunks);
    w.PutVarint(head.sealed_max);
    Append(out, w.Take());
  }
  return out;
}

Result<KeywordIndex::Head> KeywordIndex::LoadHead(
    const std::string& term) const {
  Head head;
  auto data = store_->Get(TermKey(term));
  if (data.status().IsNotFound()) return head;
  if (!data.ok()) return data.status();
  BinaryReader r(*data);
  TC_ASSIGN_OR_RETURN(head.tail, DecodePostings(r));
  if (!r.AtEnd()) {
    TC_ASSIGN_OR_RETURN(head.chunks, r.GetVarint());
    TC_ASSIGN_OR_RETURN(head.sealed_max, r.GetVarint());
  }
  return head;
}

Result<std::vector<uint64_t>> KeywordIndex::LoadChunk(const std::string& term,
                                                      uint64_t chunk) const {
  auto data = store_->Get(ChunkKey(term, chunk));
  if (data.status().IsNotFound()) return std::vector<uint64_t>{};
  if (!data.ok()) return data.status();
  BinaryReader r(*data);
  return DecodePostings(r);
}

Status KeywordIndex::IndexDocument(uint64_t doc_id, const std::string& text) {
  for (const std::string& term : Tokenize(text)) {
    TC_ASSIGN_OR_RETURN(Head head, LoadHead(term));
    if (Contains(head.tail, doc_id)) continue;  // Already indexed.
    // Ids mostly arrive in increasing order; only an id at or below the
    // sealed maximum can already sit in a chunk.
    if (head.chunks > 0 && doc_id <= head.sealed_max) {
      bool sealed = false;
      for (uint64_t i = 0; i < head.chunks && !sealed; ++i) {
        TC_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, LoadChunk(term, i));
        sealed = Contains(ids, doc_id);
      }
      if (sealed) continue;
    }
    head.tail.insert(
        std::lower_bound(head.tail.begin(), head.tail.end(), doc_id), doc_id);
    Bytes tail = EncodePostings(head.tail);
    if (tail.size() >= SealBytes()) {
      // Chunk first: a crash before the head rewrite leaves an unreferenced
      // chunk that the next seal of this slot overwrites.
      TC_RETURN_IF_ERROR(store_->Put(ChunkKey(term, head.chunks), tail));
      head.sealed_max = std::max(head.sealed_max, head.tail.back());
      ++head.chunks;
      head.tail.clear();
    }
    TC_RETURN_IF_ERROR(store_->Put(TermKey(term), EncodeHead(head)));
  }
  return Status::OK();
}

Result<bool> KeywordIndex::RemoveFromChunks(const std::string& term,
                                            const Head& head,
                                            uint64_t doc_id) {
  if (doc_id > head.sealed_max) return false;
  for (uint64_t i = 0; i < head.chunks; ++i) {
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, LoadChunk(term, i));
    if (!Erase(ids, doc_id)) continue;
    TC_RETURN_IF_ERROR(ids.empty() ? store_->Delete(ChunkKey(term, i))
                                   : store_->Put(ChunkKey(term, i),
                                                 EncodePostings(ids)));
    return true;
  }
  return false;
}

Result<bool> KeywordIndex::AnyChunkLive(const std::string& term,
                                        const Head& head) const {
  for (uint64_t i = 0; i < head.chunks; ++i) {
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, LoadChunk(term, i));
    if (!ids.empty()) return true;
  }
  return false;
}

Status KeywordIndex::RemoveDocument(uint64_t doc_id, const std::string& text) {
  for (const std::string& term : Tokenize(text)) {
    TC_ASSIGN_OR_RETURN(Head head, LoadHead(term));
    const bool from_tail = Erase(head.tail, doc_id);
    if (!from_tail) {
      TC_ASSIGN_OR_RETURN(bool from_chunk,
                          RemoveFromChunks(term, head, doc_id));
      if (!from_chunk) continue;
    }
    if (head.tail.empty()) {
      TC_ASSIGN_OR_RETURN(bool live, AnyChunkLive(term, head));
      if (!live) {
        TC_RETURN_IF_ERROR(store_->Delete(TermKey(term)));
        continue;
      }
    }
    if (from_tail) {
      TC_RETURN_IF_ERROR(store_->Put(TermKey(term), EncodeHead(head)));
    }
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> KeywordIndex::Search(
    const std::string& term) const {
  std::vector<std::string> tokens = Tokenize(term);
  if (tokens.size() != 1) {
    return Status::InvalidArgument("Search expects a single term");
  }
  TC_ASSIGN_OR_RETURN(Head head, LoadHead(tokens[0]));
  if (head.chunks == 0) return head.tail;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < head.chunks; ++i) {
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> chunk, LoadChunk(tokens[0], i));
    ids.insert(ids.end(), chunk.begin(), chunk.end());
  }
  ids.insert(ids.end(), head.tail.begin(), head.tail.end());
  // Chunks are sealed in insertion order, which is id order unless ids
  // arrived out of order.
  if (!std::is_sorted(ids.begin(), ids.end())) {
    std::sort(ids.begin(), ids.end());
  }
  return ids;
}

Result<std::vector<uint64_t>> KeywordIndex::SearchAnd(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return Status::InvalidArgument("no terms");
  TC_ASSIGN_OR_RETURN(std::vector<uint64_t> acc, Search(terms[0]));
  for (size_t i = 1; i < terms.size() && !acc.empty(); ++i) {
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> next, Search(terms[i]));
    std::vector<uint64_t> merged;
    std::set_intersection(acc.begin(), acc.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

}  // namespace tc::db
