#ifndef TC_DB_KEYWORD_INDEX_H_
#define TC_DB_KEYWORD_INDEX_H_

#include <string>
#include <vector>

#include "tc/common/codec.h"
#include "tc/common/result.h"
#include "tc/storage/log_store.h"

namespace tc::db {

/// Persistent inverted keyword index over document ids.
///
/// Implements the paper's "extract metadata, index it and provide query
/// facilities on it": the cell indexes document metadata locally so that
/// queries run *before* anything is fetched from the untrusted cloud.
/// Posting lists are delta-compressed sorted id lists. A term's list is
/// bounded in size, because a LogStore record cannot exceed one flash page:
///
///  * The head record "k/<term>" holds the open tail of the list inline,
///    and, once the list has overflowed, a trailer with the number of
///    sealed chunks and the largest id sealed so far.
///  * When the tail's encoding reaches a fixed size it is sealed as chunk
///    "k/<term>/<i>" and the tail starts empty again.
///
/// A short list therefore costs exactly one record, in the same bytes as
/// an unchunked list, and an insert rewrites only the bounded tail. Each id
/// is held at most once across tail and chunks.
class KeywordIndex {
 public:
  explicit KeywordIndex(storage::LogStore* store);

  /// Tokenizes `text` and adds `doc_id` to every term's posting list.
  Status IndexDocument(uint64_t doc_id, const std::string& text);

  /// Removes `doc_id` from the posting lists of the terms of `text`.
  Status RemoveDocument(uint64_t doc_id, const std::string& text);

  /// Sorted doc ids containing `term` (empty if none).
  Result<std::vector<uint64_t>> Search(const std::string& term) const;

  /// Docs containing every term (conjunctive query).
  Result<std::vector<uint64_t>> SearchAnd(
      const std::vector<std::string>& terms) const;

  /// Lower-cased alphanumeric tokens of `text`, deduplicated.
  static std::vector<std::string> Tokenize(const std::string& text);

 private:
  /// The decoded head record of one term.
  struct Head {
    std::vector<uint64_t> tail;  ///< Sorted ids not yet sealed.
    uint64_t chunks = 0;         ///< Sealed chunks "k/<term>/0..chunks-1".
    uint64_t sealed_max = 0;     ///< Largest id ever sealed.
  };

  static std::string TermKey(const std::string& term);
  static std::string ChunkKey(const std::string& term, uint64_t chunk);
  static Bytes EncodePostings(const std::vector<uint64_t>& ids);
  static Result<std::vector<uint64_t>> DecodePostings(BinaryReader& r);
  static Bytes EncodeHead(const Head& head);

  /// Head of `term`; an empty Head when the term has no record.
  Result<Head> LoadHead(const std::string& term) const;
  /// Ids of one sealed chunk; empty when the chunk was emptied and deleted.
  Result<std::vector<uint64_t>> LoadChunk(const std::string& term,
                                          uint64_t chunk) const;
  /// Removes `doc_id` from the sealed chunk holding it; false if none does.
  Result<bool> RemoveFromChunks(const std::string& term, const Head& head,
                                uint64_t doc_id);
  /// True when any sealed chunk of `term` still holds an id.
  Result<bool> AnyChunkLive(const std::string& term, const Head& head) const;
  /// Tail encoding size at which the tail is sealed into a chunk.
  size_t SealBytes() const;

  storage::LogStore* store_;
};

}  // namespace tc::db

#endif  // TC_DB_KEYWORD_INDEX_H_
