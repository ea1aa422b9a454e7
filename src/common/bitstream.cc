#include "common/bitstream.h"

#include <algorithm>

#include "common/bytes.h"

namespace csxa {

int BitsFor(uint64_t n) {
  if (n <= 1) return 0;
  int bits = 0;
  uint64_t max = n - 1;
  while (max > 0) {
    ++bits;
    max >>= 1;
  }
  return bits;
}

int BitWidth(uint64_t v) {
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

void BitWriter::WriteBits(uint64_t value, int width) {
  // Fill the partial last byte, then whole bytes: up to 8 bits per step.
  while (width > 0) {
    const int used = static_cast<int>(bit_size_ & 7);
    if (used == 0) bytes_.push_back(0);
    const int take = std::min(width, 8 - used);
    width -= take;
    const auto piece =
        static_cast<uint8_t>((value >> width) & ((1u << take) - 1));
    bytes_.back() |= static_cast<uint8_t>(piece << (8 - used - take));
    bit_size_ += static_cast<size_t>(take);
  }
}

void BitWriter::AlignToByte() {
  bit_size_ = (bit_size_ + 7) & ~size_t{7};
  bytes_.resize((bit_size_ + 7) / 8, 0);
}

void BitWriter::WriteAlignedBytes(const uint8_t* data, size_t n) {
  AlignToByte();
  bytes_.insert(bytes_.end(), data, data + n);
  bit_size_ += n * 8;
}

Status BitReader::ReadBits(int width, uint64_t* value) {
  if (pos_ + static_cast<size_t>(width) > size_bits_) {
    return Status::OutOfRange("BitReader: read past end of stream");
  }
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    size_t byte = pos_ >> 3;
    int bit = 7 - static_cast<int>(pos_ & 7);
    v = (v << 1) | ((data_[byte] >> bit) & 1);
    ++pos_;
  }
  *value = v;
  return Status::OK();
}

Status BitReader::ReadBit(bool* bit) {
  uint64_t v = 0;
  CSXA_RETURN_NOT_OK(ReadBits(1, &v));
  *bit = (v != 0);
  return Status::OK();
}

Status BitReader::ReadAlignedBytes(size_t n, std::string* out) {
  pos_ = (pos_ + 7) & ~size_t{7};
  if (pos_ + n * 8 > size_bits_) {
    return Status::OutOfRange("BitReader: aligned read past end of stream");
  }
  *out = std::string(common::AsChars(data_ + (pos_ >> 3), n));
  pos_ += n * 8;
  return Status::OK();
}

Status BitReader::SeekTo(size_t bit_pos) {
  if (bit_pos > size_bits_) {
    return Status::OutOfRange("BitReader: seek past end of stream");
  }
  pos_ = bit_pos;
  return Status::OK();
}

Status BitReader::SkipBits(size_t bits) { return SeekTo(pos_ + bits); }

}  // namespace csxa
