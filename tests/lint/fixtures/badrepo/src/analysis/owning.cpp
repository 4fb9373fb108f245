// Golden-bad fixture: zerocopy-owning-packet. Never compiled.
#include <vector>

namespace fixture {

// A comment naming CapturedPacket is not flagged.
void ingest(const std::vector<net::CapturedPacket>& packets);  // line 7

struct Lane { std::vector<net::CapturedPacket> staged; };       // line 9

void ingest(std::span<const net::FrameView> frames);  // views are fine

}  // namespace fixture
