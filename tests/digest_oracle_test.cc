// The digest-oracle runner (rows in digest_oracle.cc): every row's seeds
// run under every hash salt, the invariant monitors (command-log replay
// included) hold on every salt, and every Profile must equal the first
// salt's. The Profile tests print `PROFILE <row> <fields>` once per
// salt; scripts/check_determinism.sh runs them under several env salts and
// requires one field string per row across all of them.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <gtest/gtest-spi.h>

#include "digest_oracle.h"

namespace hermes::oracle {
namespace {

// Runs `seed` under every salt and checks monitors, cross-salt equality
// (the first differing salt only) and the row's guards. Returns the
// profiles in salt order.
std::vector<Profile> CheckSeed(const Scenario& row, uint64_t seed) {
  const std::vector<uint64_t> salts = Salts();
  const std::vector<Profile> runs =
      UnderEachSalt([&](size_t) { return row.run(seed); });
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(runs[i].monitors_ok)
        << row.name << " seed " << seed << " salt 0x" << std::hex << salts[i]
        << ":\n" << runs[i].report;
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    const std::string diff = runs[0].FirstDifference(runs[i]);
    if (diff.empty()) continue;
    ADD_FAILURE() << "scenario '" << row.name << "' " << diff << " at seed "
                  << seed << " under salt 0x" << std::hex << salts[i]
                  << " — some decision depends on hash iteration order";
    break;
  }
  for (const Guard& guard : row.guards) {
    EXPECT_TRUE(guard.holds(runs[0]))
        << row.name << " seed " << seed << ": " << guard.what;
  }
  return runs;
}

std::vector<const Scenario*> Rows(bool corpus_only) {
  std::vector<const Scenario*> rows;
  for (const Scenario& row : Scenarios()) {
    if (!corpus_only || !row.corpus.empty()) rows.push_back(&row);
  }
  return rows;
}

std::string RowName(const testing::TestParamInfo<const Scenario*>& info) {
  return info.param->name;
}

class DigestProfile : public testing::TestWithParam<const Scenario*> {};

TEST_P(DigestProfile, PrintsOneLinePerSalt) {
  const Scenario& row = *GetParam();
  for (const Profile& p : CheckSeed(row, row.profile_seed)) {
    std::printf("PROFILE %s %s\n", row.name, p.Line().c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, DigestProfile,
                         testing::ValuesIn(Rows(false)), RowName);

class DigestCorpus : public testing::TestWithParam<const Scenario*> {};

TEST_P(DigestCorpus, EverySeedUnderEverySalt) {
  const Scenario& row = *GetParam();
  std::vector<uint64_t> totals(row.corpus_guards.size(), 0);
  for (uint64_t seed : row.corpus) {
    const Profile base = CheckSeed(row, seed).front();
    for (size_t g = 0; g < totals.size(); ++g) {
      for (const char* field : row.corpus_guards[g].fields) {
        totals[g] += base.Get(field);
      }
    }
  }
  for (size_t g = 0; g < totals.size(); ++g) {
    EXPECT_GT(totals[g], 0u)
        << row.name << " corpus: " << row.corpus_guards[g].what;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, DigestCorpus,
                         testing::ValuesIn(Rows(true)), RowName);

// The oracle must be able to fail: a row whose outcome is the salt itself
// has to be caught, with the row and the field named.
TEST(DigestOracleSelfTest, SaltDependentRowFails) {
  const Scenario leaky{.name = "leaky", .run = [](uint64_t) {
    Profile p;
    p.Count("commits", 1).Hex("salt", HashSalt());
    return p;
  }};
  EXPECT_NONFATAL_FAILURE(CheckSeed(leaky, 1),
                          "scenario 'leaky' field 'salt'");
}

// The salt really perturbs hashing — otherwise every row proves nothing.
TEST(HashSaltTest, SaltChangesHashValues) {
  const uint64_t h1 = [] {
    SaltGuard guard(1);
    return detail::SaltAndFinalize(42);
  }();
  SaltGuard guard(2);
  EXPECT_NE(h1, detail::SaltAndFinalize(42));
}

TEST(HashSaltTest, SaltPermutesSlotOrder) {
  // With enough elements, at least one pair of salts must disagree on
  // FlatMap slot order; if all three agreed the perturbation would be
  // toothless. (Contents are identical regardless.)
  const auto orders = UnderEachSalt([](size_t) {
    FlatMap<uint64_t, uint64_t> m;
    for (uint64_t i = 0; i < 256; ++i) m[i] = i;
    return FlatMapPeer::SlotOrder(m);
  });
  EXPECT_TRUE(orders[0] != orders[1] || orders[1] != orders[2]);
}

}  // namespace
}  // namespace hermes::oracle
