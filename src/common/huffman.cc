#include "common/huffman.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace qcore {

namespace {

struct Node {
  uint64_t freq;
  int32_t symbol;   // valid only for leaves
  int left = -1;    // index into node pool
  int right = -1;
  bool leaf = false;
};

// Walks the tree assigning depths; iterative to avoid deep recursion on
// pathological (highly skewed) frequency distributions.
void AssignDepths(const std::vector<Node>& pool, int root,
                  std::map<int32_t, uint32_t>* lengths) {
  std::vector<std::pair<int, uint32_t>> stack = {{root, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = pool[idx];
    if (n.leaf) {
      (*lengths)[n.symbol] = std::max<uint32_t>(depth, 1);
      continue;
    }
    stack.push_back({n.left, depth + 1});
    stack.push_back({n.right, depth + 1});
  }
}

// Canonical code assignment: sort by (length, symbol) and count upward.
std::map<int32_t, uint64_t> CanonicalCodes(
    const std::map<int32_t, uint32_t>& lengths) {
  std::vector<std::pair<int32_t, uint32_t>> order(lengths.begin(),
                                                  lengths.end());
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  std::map<int32_t, uint64_t> codes;
  uint64_t code = 0;
  uint32_t prev_len = 0;
  for (const auto& [symbol, len] : order) {
    code <<= (len - prev_len);
    codes[symbol] = code;
    ++code;
    prev_len = len;
  }
  return codes;
}

void AppendBits(std::vector<uint8_t>* out, uint64_t* bit_count, uint64_t code,
                uint32_t len) {
  for (uint32_t i = len; i-- > 0;) {
    const uint64_t bit = (code >> i) & 1;
    const uint64_t pos = *bit_count;
    if (pos % 8 == 0) out->push_back(0);
    if (bit) out->back() |= static_cast<uint8_t>(1u << (7 - pos % 8));
    ++*bit_count;
  }
}

}  // namespace

Result<HuffmanEncoded> HuffmanCoder::Encode(
    const std::vector<int32_t>& symbols) {
  if (symbols.empty()) {
    return Status::InvalidArgument("Huffman: empty symbol stream");
  }
  std::map<int32_t, uint64_t> freq;
  for (int32_t s : symbols) ++freq[s];

  HuffmanEncoded enc;
  enc.symbol_count = symbols.size();

  if (freq.size() == 1) {
    // Degenerate alphabet: one symbol, emit a 1-bit code per occurrence.
    const int32_t only = freq.begin()->first;
    enc.code_lengths[only] = 1;
    enc.codes[only] = 0;
    for (size_t i = 0; i < symbols.size(); ++i) {
      AppendBits(&enc.bits, &enc.bit_count, 0, 1);
    }
    return enc;
  }

  // Build the Huffman tree with a min-heap over (freq, tie-break id).
  std::vector<Node> pool;
  pool.reserve(2 * freq.size());
  using HeapItem = std::pair<uint64_t, int>;  // (freq, pool index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (const auto& [symbol, f] : freq) {
    pool.push_back({f, symbol, -1, -1, true});
    heap.push({f, static_cast<int>(pool.size()) - 1});
  }
  while (heap.size() > 1) {
    auto [fa, a] = heap.top();
    heap.pop();
    auto [fb, b] = heap.top();
    heap.pop();
    pool.push_back({fa + fb, 0, a, b, false});
    heap.push({fa + fb, static_cast<int>(pool.size()) - 1});
  }
  const int root = heap.top().second;

  AssignDepths(pool, root, &enc.code_lengths);
  enc.codes = CanonicalCodes(enc.code_lengths);

  for (int32_t s : symbols) {
    AppendBits(&enc.bits, &enc.bit_count, enc.codes.at(s),
               enc.code_lengths.at(s));
  }
  return enc;
}

Result<std::vector<int32_t>> HuffmanCoder::Decode(
    const HuffmanEncoded& encoded) {
  // A damaged header must fail here, before it sizes a buffer or indexes
  // one: the payload must hold bit_count bits, every symbol needs at least
  // one of them, and every length needs a code the 64-bit walk can reach.
  if (encoded.bit_count > 8 * static_cast<uint64_t>(encoded.bits.size())) {
    return Status::Corruption("Huffman: bit count past the payload");
  }
  if (encoded.symbol_count > encoded.bit_count) {
    return Status::Corruption("Huffman: more symbols than payload bits");
  }
  // Build (code, length) -> symbol lookup. Alphabets here are tiny (at most
  // 2^bits quantization levels), so a map walk per bit is fine.
  std::map<std::pair<uint64_t, uint32_t>, int32_t> decode_map;
  for (const auto& [symbol, len] : encoded.code_lengths) {
    const auto code = encoded.codes.find(symbol);
    if (code == encoded.codes.end() || len < 1 || len > 63) {
      return Status::Corruption("Huffman: code table entry out of range");
    }
    decode_map[{code->second, len}] = symbol;
  }

  std::vector<int32_t> out;
  out.reserve(encoded.symbol_count);
  uint64_t code = 0;
  uint32_t len = 0;
  for (uint64_t pos = 0; pos < encoded.bit_count; ++pos) {
    const uint8_t byte = encoded.bits[pos / 8];
    const uint64_t bit = (byte >> (7 - pos % 8)) & 1;
    code = (code << 1) | bit;
    ++len;
    auto it = decode_map.find({code, len});
    if (it != decode_map.end()) {
      out.push_back(it->second);
      code = 0;
      len = 0;
      if (out.size() == encoded.symbol_count) break;
    }
    if (len > 63) {
      return Status::Corruption("Huffman: no code matched within 63 bits");
    }
  }
  if (out.size() != encoded.symbol_count) {
    return Status::Corruption("Huffman: stream ended mid-symbol");
  }
  return out;
}

double HuffmanCoder::EntropyBits(const std::vector<int32_t>& symbols) {
  if (symbols.empty()) return 0.0;
  std::map<int32_t, uint64_t> freq;
  for (int32_t s : symbols) ++freq[s];
  const double n = static_cast<double>(symbols.size());
  double bits = 0.0;
  for (const auto& [symbol, f] : freq) {
    (void)symbol;
    const double p = static_cast<double>(f) / n;
    bits += -static_cast<double>(f) * std::log2(p);
  }
  return bits;
}

}  // namespace qcore
