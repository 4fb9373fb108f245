// Shared seed corpus for the robustness sweep and the libFuzzer harnesses.
//
// One place defines the interesting inputs — valid messages for every
// decoder, the paper's §6.1 non-conforming IEC 104 variants (O37's 2-octet
// IOA, O53/O58/O28's 1-octet COT), and structurally broken frames
// (truncated, oversized length, corrupted checksum). The GTest sweep
// mutates these seeds in-process; the libFuzzer harnesses start their
// exploration from the same bytes via write_seed_files().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uncharted::corpus {

/// Which decoder family a seed primarily targets. Every harness must
/// survive every seed regardless (decoders reject foreign bytes, they
/// never crash on them), so cross-feeding categories is fair game.
enum class Category {
  kIec104,   ///< APDU/ASDU frames (standard + legacy profiles)
  kIccp,     ///< TPKT/COTP/ICCP wire messages
  kC37118,   ///< synchrophasor frames
  kFrame,    ///< Ethernet/IPv4/TCP frames and pcap buffers
  kConformance,  ///< op scripts for the IEC 104 conformance state machine
  kTapstream,    ///< live-ingest tapstream wire messages (hello..fin-ack)
};

std::string category_name(Category c);

struct Seed {
  std::string name;  ///< stable identifier, becomes the exported filename
  Category category;
  std::vector<std::uint8_t> bytes;
};

/// All seeds, built once on first use (encoders run, so this cannot be a
/// static initializer).
const std::vector<Seed>& seeds();

/// The subset for one decoder family.
std::vector<const Seed*> seeds_for(Category c);

/// Rewrites the IPv4 header checksum of an Ethernet frame in place (over
/// the header length its IHL claims, when the frame holds that much), so a
/// mutated IPv4 header reaches the decoder checks that follow the checksum.
/// Frames too short to carry the checksum field are left as they are.
void refresh_ipv4_checksum(std::vector<std::uint8_t>& frame);

/// Writes each seed as <dir>/<category>/<name>.bin for use as a libFuzzer
/// starting corpus. Creates directories as needed; returns false on any
/// filesystem error.
bool write_seed_files(const std::string& dir);

}  // namespace uncharted::corpus
