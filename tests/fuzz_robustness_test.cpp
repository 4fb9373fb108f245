// Fuzz-style robustness sweep: every decoder in the repository is fed
// random bytes and mutations of the shared seed corpus (tests/corpus — the
// same seeds the libFuzzer harnesses in tests/fuzz start from). Decoders
// must return errors, not crash, hang, or read out of bounds; the
// debug-asan-ubsan preset runs this suite with the full sanitizer wall.
#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "iccp/iccp.hpp"
#include "iec104/parser.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"
#include "netd/wire.hpp"
#include "synchro/c37118.hpp"
#include "util/rng.hpp"

namespace uncharted {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Flips a few random bits/bytes of a valid message.
std::vector<std::uint8_t> mutate(Rng& rng, std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return bytes;
  int flips = static_cast<int>(1 + rng.below(4));
  for (int i = 0; i < flips; ++i) {
    auto pos = rng.below(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  }
  if (rng.chance(0.3) && bytes.size() > 2) {
    bytes.resize(bytes.size() - 1 - rng.below(bytes.size() / 2));
  }
  return bytes;
}

/// Walks every complete pcap record the bytes hold.
void walk_pcap(std::span<const std::uint8_t> bytes) {
  auto cursor = net::PcapCursor::open(bytes);
  if (!cursor) return;
  net::FrameView frame;
  while (cursor->next(frame)) (void)net::decode_frame(frame.data);
}

/// Mutations of every corpus seed in one category, `rounds` per seed.
void sweep_category(Rng& rng, corpus::Category category, int rounds,
                    const std::function<void(std::span<const std::uint8_t>)>& decode) {
  auto seeds = corpus::seeds_for(category);
  ASSERT_FALSE(seeds.empty()) << "no corpus seeds for " << corpus::category_name(category);
  for (const auto* seed : seeds) {
    decode(seed->bytes);  // the seed itself must already be handled cleanly
    for (int i = 0; i < rounds; ++i) {
      auto mutated = mutate(rng, seed->bytes);
      decode(mutated);
    }
  }
}

TEST(Fuzz, EthernetFrameDecoder) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 120);
    (void)net::decode_frame(bytes);  // must not crash
  }
}

TEST(Fuzz, MutatedFrameCorpus) {
  Rng rng(2);
  sweep_category(rng, corpus::Category::kFrame, 200, [](auto bytes) {
    (void)net::decode_frame(bytes);
    walk_pcap(bytes);
  });
}

TEST(Fuzz, PcapCursor) {
  Rng rng(3);
  for (int i = 0; i < 300; ++i) walk_pcap(random_bytes(rng, 200));
}

TEST(Fuzz, Iec104Decoders) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 260);
    ByteReader r(bytes);
    (void)iec104::decode_apdu_layered(r);
    (void)iec104::detect_profiles(bytes);
  }
  sweep_category(rng, corpus::Category::kIec104, 150, [](auto bytes) {
    for (const auto& profile : iec104::candidate_profiles()) {
      ByteReader r(bytes);
      (void)iec104::decode_apdu_layered(r, profile);
    }
    (void)iec104::detect_profiles(bytes);
  });
}

TEST(Fuzz, TapstreamWireDecoders) {
  Rng rng(11);
  const auto decode_all = [](std::span<const std::uint8_t> bytes) {
    {
      ByteReader r(bytes);
      (void)netd::wire::decode_hello(r);
    }
    {
      ByteReader r(bytes);
      (void)netd::wire::decode_hello_ack(r);
    }
    {
      ByteReader r(bytes);
      auto rec = netd::wire::decode_record_header(r);
      if (rec.ok()) (void)r.skip(rec->cap_len);
    }
    {
      ByteReader r(bytes);
      (void)netd::wire::decode_fin(r);
    }
    {
      ByteReader r(bytes);
      (void)netd::wire::decode_fin_ack(r);
    }
    {
      ByteReader r(bytes);
      (void)netd::wire::decode_progress(r);
    }
  };
  for (int i = 0; i < 500; ++i) decode_all(random_bytes(rng, 64));
  sweep_category(rng, corpus::Category::kTapstream, 200, decode_all);
}

TEST(Fuzz, C37118Decoder) {
  Rng rng(6);
  synchro::ConfigFrame cfg;
  synchro::PmuConfig pmu;
  pmu.phasor_names = {"VA"};
  pmu.phasor_units = {915527};
  cfg.pmus.push_back(pmu);
  for (int i = 0; i < 500; ++i) {
    (void)synchro::decode_frame(random_bytes(rng, 100), &cfg);
    (void)synchro::split_stream(random_bytes(rng, 200));
  }
  sweep_category(rng, corpus::Category::kC37118, 150, [&cfg](auto bytes) {
    (void)synchro::decode_frame(bytes, &cfg);
    (void)synchro::decode_frame(bytes, nullptr);
    (void)synchro::split_stream(bytes);
  });
}

TEST(Fuzz, IccpDecoder) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    auto garbage = random_bytes(rng, 120);
    ByteReader r1(garbage);
    (void)iccp::from_wire(r1);
  }
  sweep_category(rng, corpus::Category::kIccp, 200, [](auto bytes) {
    ByteReader r(bytes);
    (void)iccp::from_wire(r);
    (void)iccp::Message::decode(bytes);
  });
}

TEST(Fuzz, StreamParserOnMutatedTraffic) {
  Rng rng(8);
  // A valid stream with a mutation in the middle must resynchronize and
  // keep parsing later APDUs where possible — and never crash.
  iec104::Asdu asdu;
  asdu.type = iec104::TypeId::M_ME_NC_1;
  asdu.common_address = 7;
  asdu.objects.push_back({100, iec104::ShortFloat{1.0f, {}}, std::nullopt});
  auto one = iec104::Apdu::make_i(0, 0, asdu).encode().take();
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> stream;
    for (int k = 0; k < 5; ++k) stream.insert(stream.end(), one.begin(), one.end());
    auto mutated = mutate(rng, stream);
    iec104::ApduStreamParser parser;
    parser.feed(0, mutated);
    EXPECT_LE(parser.apdus().size(), 5u * 4u);  // sanity bound
  }
}

TEST(Fuzz, StreamParserOnMutatedCorpusConcatenations) {
  Rng rng(9);
  auto seeds = corpus::seeds_for(corpus::Category::kIec104);
  for (int i = 0; i < 150; ++i) {
    std::vector<std::uint8_t> stream;
    for (int k = 0; k < 4; ++k) {
      const auto& seed = seeds[rng.below(seeds.size())]->bytes;
      stream.insert(stream.end(), seed.begin(), seed.end());
    }
    iec104::ApduStreamParser parser;
    parser.feed(0, mutate(rng, stream));
  }
}

// Every corpus seed tagged as a valid wire message must actually decode —
// guards the corpus itself against rotting as encoders evolve.
TEST(Corpus, ValidSeedsDecode) {
  for (const auto* seed : corpus::seeds_for(corpus::Category::kIec104)) {
    if (seed->name.rfind("apdu_i_", 0) == 0 || seed->name.rfind("apdu_s_", 0) == 0 ||
        seed->name.rfind("apdu_u_", 0) == 0) {
      EXPECT_FALSE(iec104::detect_profiles(seed->bytes).empty())
          << seed->name << " should decode under at least one profile";
    }
  }
}

}  // namespace
}  // namespace uncharted
