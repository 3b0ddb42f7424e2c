#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "tc/cell/cell.h"
#include "tc/cell/vault_baseline.h"
#include "tc/storage/flash_device.h"

namespace tc::cell {
namespace {

using policy::ObligationType;
using policy::Policy;
using policy::Right;
using policy::UsageRule;

class CellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    alice_gateway_ = MakeCell("alice-gateway", "alice",
                              tee::DeviceClass::kHomeGateway);
    alice_phone_ =
        MakeCell("alice-phone", "alice", tee::DeviceClass::kSmartPhone);
    bob_phone_ = MakeCell("bob-phone", "bob", tee::DeviceClass::kSmartPhone);
  }

  std::unique_ptr<TrustedCell> MakeCell(const std::string& id,
                                        const std::string& owner,
                                        tee::DeviceClass device_class) {
    TrustedCell::Config config;
    config.cell_id = id;
    config.owner = owner;
    config.device_class = device_class;
    // Small flash keeps tests fast.
    config.use_default_flash = false;
    config.flash.page_size = 2048;
    config.flash.pages_per_block = 16;
    config.flash.block_count = 256;
    auto cell = TrustedCell::Create(config, &cloud_, &directory_, &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  Policy BobReadPolicy(int max_uses = 0) {
    UsageRule rule;
    rule.id = "bob-read";
    rule.subjects = {"bob"};
    rule.rights = {Right::kRead};
    rule.max_uses = max_uses;
    rule.obligations = {ObligationType::kLogAccess,
                        ObligationType::kNotifyOwner};
    Policy p;
    p.id = "share-with-bob";
    p.owner = "alice";
    p.rules = {rule};
    return p;
  }

  SimulatedClock clock_;
  cloud::CloudInfrastructure cloud_;
  CellDirectory directory_;
  std::unique_ptr<TrustedCell> alice_gateway_;
  std::unique_ptr<TrustedCell> alice_phone_;
  std::unique_ptr<TrustedCell> bob_phone_;
};

TEST_F(CellTest, CellsRegisterInDirectory) {
  EXPECT_EQ(directory_.size(), 3u);
  EXPECT_EQ(directory_.CellsOf("alice").size(), 2u);
  auto bob = directory_.Lookup("bob-phone");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->owner, "bob");
}

TEST_F(CellTest, StoreAndFetchOwnDocument) {
  Bytes content = ToBytes("electricity bill January 2013");
  auto doc_id = alice_gateway_->StoreDocument(
      "EDF bill 2013-01", "bill energy edf", content,
      MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  auto fetched = alice_gateway_->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);
  EXPECT_EQ(alice_gateway_->stats().documents_stored, 1u);
  EXPECT_EQ(alice_gateway_->stats().reads_allowed, 1u);
}

TEST_F(CellTest, PayloadInCloudIsCiphertext) {
  Bytes content = ToBytes("super secret medical record");
  auto doc_id = alice_gateway_->StoreDocument("medical", "health", content,
                                              MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  auto meta = alice_gateway_->GetDocumentMeta(*doc_id);
  ASSERT_TRUE(meta.ok());
  Bytes blob = *cloud_.GetBlob(meta->blob_id);
  std::string blob_str(blob.begin(), blob.end());
  EXPECT_EQ(blob_str.find("secret"), std::string::npos);
  EXPECT_EQ(blob_str.find("medical"), std::string::npos);
}

TEST_F(CellTest, MetadataSearchIsLocal) {
  (void)*alice_gateway_->StoreDocument("Paris photo", "photo paris 2012",
                                       ToBytes("jpg"), MakeOwnerPolicy("alice"));
  (void)*alice_gateway_->StoreDocument("Bill EDF", "bill energy",
                                       ToBytes("pdf"), MakeOwnerPolicy("alice"));
  uint64_t gets_before = cloud_.stats().blob_gets;
  auto hits = alice_gateway_->SearchDocuments("paris");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].title, "Paris photo");
  // Metadata-first: the search touched no cloud blob.
  EXPECT_EQ(cloud_.stats().blob_gets, gets_before);
}

TEST_F(CellTest, UpdateBumpsVersionAndFetchesLatest) {
  auto doc_id = alice_gateway_->StoreDocument("notes", "notes",
                                              ToBytes("v1"),
                                              MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->UpdateDocument(*doc_id, ToBytes("v2")).ok());
  EXPECT_EQ(alice_gateway_->GetDocumentMeta(*doc_id)->version, 2u);
  EXPECT_EQ(*alice_gateway_->FetchDocument(*doc_id), ToBytes("v2"));
}

TEST_F(CellTest, OwnerPolicyDeniesStrangers) {
  auto doc_id = alice_gateway_->StoreDocument(
      "private", "private", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  auto read = alice_gateway_->ReadSharedDocument(*doc_id, "mallory");
  EXPECT_TRUE(read.status().IsPermissionDenied());
  EXPECT_EQ(alice_gateway_->stats().reads_denied, 1u);
}

TEST_F(CellTest, SyncPropagatesMetadataBetweenOwnerCells) {
  Bytes content = ToBytes("pay slip March");
  auto doc_id = alice_gateway_->StoreDocument("pay slip", "salary pay",
                                              content,
                                              MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  ASSERT_TRUE(alice_phone_->SyncPull().ok());

  // The phone now finds the doc locally and can fetch+decrypt it (doc key
  // derived from the shared owner master).
  auto hits = alice_phone_->SearchDocuments("salary");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  auto fetched = alice_phone_->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);
}

TEST_F(CellTest, SyncRollbackDetected) {
  (void)*alice_gateway_->StoreDocument("d1", "k", ToBytes("1"),
                                       MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  ASSERT_TRUE(alice_phone_->SyncPull().ok());
  (void)*alice_gateway_->StoreDocument("d2", "k", ToBytes("2"),
                                       MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  ASSERT_TRUE(alice_phone_->SyncPull().ok());

  // The adversary rolls the manifest back to version 1 on every read.
  cloud::AdversaryConfig adversary;
  adversary.rollback_read_prob = 1.0;
  cloud_.set_adversary(adversary);
  Status pulled = alice_phone_->SyncPull();
  EXPECT_TRUE(pulled.IsIntegrityViolation());
  ASSERT_FALSE(alice_phone_->incidents().empty());
  EXPECT_EQ(alice_phone_->incidents().back().type,
            IncidentType::kRollbackDetected);
}

TEST_F(CellTest, ShareGrantFlowEndToEnd) {
  Bytes content = ToBytes("holiday photo from Brittany");
  auto doc_id = alice_gateway_->StoreDocument("Brittany photo",
                                              "photo brittany holiday",
                                              content, MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy())
          .ok());
  auto accepted = bob_phone_->ProcessInbox();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 1);

  auto read = bob_phone_->ReadSharedDocument(*doc_id, "bob");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);
  EXPECT_EQ(bob_phone_->stats().reads_allowed, 1u);

  // Obligation kNotifyOwner produced an access notification for Alice.
  (void)alice_gateway_->ProcessInbox();
  auto notifications = alice_gateway_->TakeMessages("access-notification");
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].from, "bob-phone");
}

TEST_F(CellTest, SharedPolicyEnforcedOnRecipient) {
  auto doc_id = alice_gateway_->StoreDocument(
      "photo", "photo", ToBytes("img"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  // Two uses only (footnote-6 style mutability).
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy(2))
          .ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);

  EXPECT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "bob").ok());
  EXPECT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "bob").ok());
  auto third = bob_phone_->ReadSharedDocument(*doc_id, "bob");
  EXPECT_TRUE(third.status().IsPermissionDenied());
  // Carol can't read on Bob's cell either (not a rule subject).
  EXPECT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "carol")
                  .status()
                  .IsPermissionDenied());
}

TEST_F(CellTest, ForgedGrantRejected) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy())
          .ok());
  // The infrastructure tampers with the grant in transit.
  auto pending = cloud_.Receive("bob-phone");
  ASSERT_EQ(pending.size(), 1u);
  Bytes tampered = pending[0].payload;
  tampered[tampered.size() / 2] ^= 1;
  cloud_.Send(pending[0].from, "bob-phone", "share", tampered);

  auto accepted = bob_phone_->ProcessInbox();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 0);
  ASSERT_FALSE(bob_phone_->incidents().empty());
}

TEST_F(CellTest, ReplayedGrantDetected) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy())
          .ok());
  auto pending = cloud_.Receive("bob-phone");
  ASSERT_EQ(pending.size(), 1u);
  // Deliver the same grant twice.
  cloud_.Send(pending[0].from, "bob-phone", "share", pending[0].payload);
  cloud_.Send(pending[0].from, "bob-phone", "share", pending[0].payload);
  auto accepted = bob_phone_->ProcessInbox();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 1);
  bool replay_detected = false;
  for (const auto& incident : bob_phone_->incidents()) {
    if (incident.type == IncidentType::kReplayedGrant) replay_detected = true;
  }
  EXPECT_TRUE(replay_detected);
}

TEST_F(CellTest, TamperedPayloadDetectedOnFetch) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("payload"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  cloud::AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;
  cloud_.set_adversary(adversary);
  auto fetched = alice_gateway_->FetchDocument(*doc_id);
  EXPECT_TRUE(fetched.status().IsIntegrityViolation());
  ASSERT_FALSE(alice_gateway_->incidents().empty());
  EXPECT_EQ(alice_gateway_->incidents().back().type,
            IncidentType::kPayloadTampered);
}

TEST_F(CellTest, BlobRollbackDetectedOnFetch) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("v1"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->UpdateDocument(*doc_id, ToBytes("v2")).ok());
  cloud::AdversaryConfig adversary;
  adversary.rollback_read_prob = 1.0;
  cloud_.set_adversary(adversary);
  auto fetched = alice_gateway_->FetchDocument(*doc_id);
  EXPECT_TRUE(fetched.status().IsIntegrityViolation());
  ASSERT_FALSE(alice_gateway_->incidents().empty());
  EXPECT_EQ(alice_gateway_->incidents().back().type,
            IncidentType::kRollbackDetected);
}

TEST_F(CellTest, AuditLogPushedAndVerifiedByOriginator) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy(3))
          .ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);
  (void)bob_phone_->ReadSharedDocument(*doc_id, "bob");
  (void)bob_phone_->ReadSharedDocument(*doc_id, "carol");  // Denied.

  ASSERT_TRUE(bob_phone_->PushAuditLog("alice-gateway").ok());
  (void)alice_gateway_->ProcessInbox();
  auto pushes = alice_gateway_->TakeMessages("audit-log");
  ASSERT_EQ(pushes.size(), 1u);
  auto entries = alice_gateway_->VerifyAuditPush(pushes[0]);
  ASSERT_TRUE(entries.ok());
  // The journal carries the full evidence stream: the cell's boot
  // attestation record first, then the two policy decisions.
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].kind, obs::AuditKind::kAttestation);
  EXPECT_EQ((*entries)[1].subject, "bob");
  EXPECT_EQ((*entries)[1].kind, obs::AuditKind::kPolicyDecision);
  EXPECT_TRUE((*entries)[1].allowed);
  EXPECT_EQ((*entries)[2].subject, "carol");
  EXPECT_FALSE((*entries)[2].allowed);
}

TEST_F(CellTest, SensorIngestAndGranularityViews) {
  // One hour of 1 Hz readings.
  Timestamp start = MakeTimestamp(2013, 1, 7, 0, 0, 0);
  for (int i = 0; i < 3600; ++i) {
    ASSERT_TRUE(
        alice_gateway_->IngestReading("power", start + i, 200 + i % 100)
            .ok());
  }
  auto quarter_hours =
      alice_gateway_->Aggregates("power", start, start + 3600, 900);
  ASSERT_TRUE(quarter_hours.ok());
  EXPECT_EQ(quarter_hours->size(), 4u);
  for (const auto& w : *quarter_hours) {
    EXPECT_EQ(w.count, 900u);
    EXPECT_GT(w.mean, 199.0);
  }
  // Publish to the social game at daily granularity.
  ASSERT_TRUE(alice_gateway_
                  ->PublishAggregate("social-game", "power", start,
                                     start + 3600, kSecondsPerDay)
                  .ok());
  auto msgs = cloud_.Receive("social-game");
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].topic, "aggregate");
}

TEST_F(CellTest, PublishedAggregatePayloadDecodes) {
  Timestamp start = MakeTimestamp(2013, 1, 7, 0, 0, 0);
  for (int i = 0; i < 1800; ++i) {
    ASSERT_TRUE(alice_gateway_->IngestReading("power", start + i, 100).ok());
  }
  ASSERT_TRUE(alice_gateway_
                  ->PublishAggregate("utility", "power", start, start + 1800,
                                     900)
                  .ok());
  auto msgs = cloud_.Receive("utility");
  ASSERT_EQ(msgs.size(), 1u);
  BinaryReader r(msgs[0].payload);
  EXPECT_EQ(*r.GetString(), "power");
  EXPECT_EQ(*r.GetI64(), 900);
  ASSERT_EQ(*r.GetVarint(), 2u);  // Two 15-minute windows.
  EXPECT_EQ(*r.GetI64(), start);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 100.0);
  EXPECT_EQ(*r.GetI64(), start + 900);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 100.0);
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(CellTest, ProvideAggregateValueSums) {
  Timestamp start = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(alice_gateway_->IngestReading("power", start + i, 10).ok());
  }
  auto sum = alice_gateway_->ProvideAggregateValue("power", 0, 100);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 1000);
}

TEST_F(CellTest, DeleteAfterUseObligation) {
  UsageRule rule;
  rule.id = "one-shot";
  rule.subjects = {"bob"};
  rule.rights = {Right::kRead};
  rule.obligations = {ObligationType::kDeleteAfterUse};
  Policy p{"one-shot-policy", "alice", {rule}};

  auto doc_id = alice_gateway_->StoreDocument(
      "ephemeral", "secret", ToBytes("burn after reading"),
      MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->ShareDocument(*doc_id, "bob-phone", p).ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);
  ASSERT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "bob").ok());
  // Metadata and key are gone afterwards.
  EXPECT_TRUE(
      bob_phone_->ReadSharedDocument(*doc_id, "bob").status().IsNotFound());
}

TEST_F(CellTest, CentralizedVaultBaselineContrasts) {
  CentralizedVault vault(&cloud_, &clock_);
  Policy alice_only = MakeOwnerPolicy("alice");
  auto doc = vault.StoreDocument("alice", "diary", ToBytes("dear diary"),
                                 alice_only);
  ASSERT_TRUE(doc.ok());
  // Policy honoured at first...
  EXPECT_TRUE(vault.ReadDocument(*doc, "mallory").status().IsPermissionDenied());
  EXPECT_TRUE(vault.ReadDocument(*doc, "alice").ok());
  // ...until the provider silently changes its mind.
  vault.set_honour_policies(false);
  EXPECT_TRUE(vault.ReadDocument(*doc, "mallory").ok());
  // And one breach exposes everything in plaintext.
  auto loot = vault.BreachAll();
  ASSERT_EQ(loot.size(), 1u);
  EXPECT_EQ(ToString(std::get<2>(loot[0])), "dear diary");
}


// Thousands of documents under one keyword: the keyword's posting list
// outgrows one flash page.
TEST_F(CellTest, ThousandsOfDocumentsShareOneKeyword) {
  constexpr int kDocs = 3000;
  std::set<std::string> stored;
  for (int i = 0; i < kDocs; ++i) {
    auto id = alice_gateway_->StoreDocument(
        "note " + std::to_string(i), "shared", ToBytes("n" + std::to_string(i)),
        MakeOwnerPolicy("alice"));
    ASSERT_TRUE(id.ok()) << i << ": " << id.status().ToString();
    stored.insert(*id);
  }
  auto found = alice_gateway_->SearchDocuments("shared");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  std::set<std::string> listed;
  for (const DocumentMeta& meta : *found) listed.insert(meta.doc_id);
  EXPECT_EQ(listed, stored);
}

// Fills a tiny secure-token store until StoreDocument fails. The failed
// store may have written postings before its meta write failed, and its
// rollback may fail on the full store too. Search must still succeed and
// list exactly the documents that were stored — also after a reboot, when
// the next document must not inherit the failed document's number (and
// with it any leftover postings).
TEST_F(CellTest, FailedStoreLeavesNoPhantomDocument) {
  storage::FlashGeometry geo;
  geo.page_size = 2048;
  geo.pages_per_block = 8;
  geo.block_count = 8;
  storage::FlashDevice flash(geo);
  TrustedCell::Config config;
  config.cell_id = "alice-token";
  config.owner = "alice";
  config.device_class = tee::DeviceClass::kSecureToken;
  config.use_default_flash = false;
  config.flash_device = &flash;
  auto made = TrustedCell::Create(config, &cloud_, &directory_, &clock_);
  ASSERT_TRUE(made.ok()) << made.status().ToString();

  // "aaa" sorts first, so its posting is written before the other terms'.
  std::set<std::string> stored;
  Status failure;
  for (int i = 0; i < 5000 && failure.ok(); ++i) {
    auto id = (*made)->StoreDocument(
        "record " + std::to_string(i), "aaa " + std::string(400, 'z'),
        ToBytes("payload " + std::to_string(i)), MakeOwnerPolicy("alice"));
    if (id.ok()) {
      stored.insert(*id);
    } else {
      failure = id.status();
    }
  }
  ASSERT_FALSE(failure.ok()) << "the store never filled up";
  ASSERT_FALSE(stored.empty());

  auto expect_listed_exactly = [&](TrustedCell& cell) {
    auto found = cell.SearchDocuments("aaa");
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    std::set<std::string> listed;
    for (const DocumentMeta& meta : *found) {
      listed.insert(meta.doc_id);
      EXPECT_TRUE(cell.FetchDocument(meta.doc_id).ok()) << meta.doc_id;
    }
    EXPECT_EQ(listed, stored);
    EXPECT_EQ(cell.ListDocuments().size(), stored.size());
    // The space proof walks the whole registry: a phantom entry fails it.
    EXPECT_TRUE(cell.ProveDocumentInSpace(*stored.begin()).ok());
  };
  expect_listed_exactly(**made);

  // Power-cycle the token: a new cell on the same image. The rollback's
  // removal never reached the full flash, so the failed document's number
  // is still in the "aaa" posting list after recovery.
  made->reset();
  auto rebooted = TrustedCell::Create(config, &cloud_, &directory_, &clock_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.status().ToString();
  TrustedCell& token = **rebooted;
  auto postings = token.database().keywords().Search("aaa");
  ASSERT_TRUE(postings.ok()) << postings.status().ToString();
  ASSERT_GT(postings->size(), stored.size()) << "no orphan posting survived";
  expect_listed_exactly(token);

  auto late = token.StoreDocument("late", "bbb", ToBytes("late payload"),
                                  MakeOwnerPolicy("alice"));
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(stored.count(*late), 0u);
  auto aaa = token.SearchDocuments("aaa");
  ASSERT_TRUE(aaa.ok()) << aaa.status().ToString();
  for (const DocumentMeta& meta : *aaa) EXPECT_NE(meta.doc_id, *late);
  EXPECT_EQ(aaa->size(), stored.size());
  auto bbb = token.SearchDocuments("bbb");
  ASSERT_TRUE(bbb.ok()) << bbb.status().ToString();
  ASSERT_EQ(bbb->size(), 1u);
  EXPECT_EQ((*bbb)[0].doc_id, *late);
  auto body = token.FetchDocument(*late);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(*body, ToBytes("late payload"));
}

}  // namespace
}  // namespace tc::cell
