#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crowdrl {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    CROWDRL_CHECK_MSG(rows[r].size() == m.cols_, "ragged initializer");
    std::copy(rows[r].begin(), rows[r].end(), m.row_data(r));
  }
  return m;
}

Matrix Matrix::Constant(size_t rows, size_t cols, float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Eye(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Uniform(size_t rows, size_t cols, Rng* rng, float lo,
                       float hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = static_cast<float>(rng->Uniform(lo, hi));
  return m;
}

Matrix Matrix::Normal(size_t rows, size_t cols, Rng* rng, float mean,
                      float stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = static_cast<float>(rng->Normal(mean, stddev));
  return m;
}

Matrix Matrix::Xavier(size_t fan_in, size_t fan_out, Rng* rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Uniform(fan_in, fan_out, rng, -bound, bound);
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::SetRow(size_t r, const Matrix& src, size_t src_row) {
  CROWDRL_CHECK(r < rows_ && src_row < src.rows_ && src.cols_ == cols_);
  std::memcpy(row_data(r), src.row_data(src_row), cols_ * sizeof(float));
}

void Matrix::SetRow(size_t r, const std::vector<float>& src) {
  CROWDRL_CHECK(r < rows_ && src.size() == cols_);
  std::memcpy(row_data(r), src.data(), cols_ * sizeof(float));
}

Matrix Matrix::GetRow(size_t r) const {
  CROWDRL_CHECK(r < rows_);
  Matrix out(1, cols_);
  std::memcpy(out.data(), row_data(r), cols_ * sizeof(float));
  return out;
}

Matrix Matrix::SliceRows(size_t begin, size_t end) const {
  Matrix out;
  SliceRowsInto(begin, end, &out);
  return out;
}

void Matrix::SliceRowsInto(size_t begin, size_t end, Matrix* out) const {
  CROWDRL_CHECK(begin <= end && end <= rows_);
  CROWDRL_CHECK(out != this);
  out->Resize(end - begin, cols_);
  if (end == begin) return;
  std::memcpy(out->data(), data_.data() + begin * cols_,
              (end - begin) * cols_ * sizeof(float));
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CROWDRL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  CROWDRL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(float scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix Matrix::CwiseProduct(const Matrix& other) const {
  CROWDRL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

void Matrix::AddScaled(const Matrix& other, float alpha) {
  CROWDRL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Matrix::AddRowBroadcast(const Matrix& row_vec) {
  CROWDRL_CHECK(row_vec.rows_ == 1 && row_vec.cols_ == cols_);
  for (size_t r = 0; r < rows_; ++r) {
    float* dst = row_data(r);
    const float* src = row_vec.data();
    for (size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
}

Matrix Matrix::Relu() const {
  Matrix out = *this;
  for (auto& v : out.data_) v = v > 0.0f ? v : 0.0f;
  return out;
}

Matrix Matrix::ReluMask() const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] > 0.0f ? 1.0f : 0.0f;
  }
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out;
  TransposeInto(&out);
  return out;
}

namespace {

/// Writes the transpose of the 4×4 block at `src` (row stride `ls`) to
/// `dst` (row stride `ld`), through four registers on x86-64 (SSE is part
/// of the baseline ISA there).
inline void Transpose4x4(const float* src, size_t ls, float* dst,
                         size_t ld) {
#if defined(__x86_64__)
  __m128 r0 = _mm_loadu_ps(src);
  __m128 r1 = _mm_loadu_ps(src + ls);
  __m128 r2 = _mm_loadu_ps(src + 2 * ls);
  __m128 r3 = _mm_loadu_ps(src + 3 * ls);
  _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
  _mm_storeu_ps(dst, r0);
  _mm_storeu_ps(dst + ld, r1);
  _mm_storeu_ps(dst + 2 * ld, r2);
  _mm_storeu_ps(dst + 3 * ld, r3);
#else
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) dst[c * ld + r] = src[r * ls + c];
  }
#endif
}

}  // namespace

void Matrix::TransposeInto(Matrix* out) const {
  CROWDRL_CHECK(out != this);
  out->Resize(cols_, rows_);
  const float* src = data_.data();
  float* dst = out->data_.data();
  // 8×8 blocks, each four 4×4 register transposes: the whole block is
  // loaded, shuffled and stored without a scalar round trip.
  size_t r0 = 0;
  for (; r0 + 8 <= rows_; r0 += 8) {
    size_t c0 = 0;
    for (; c0 + 8 <= cols_; c0 += 8) {
      const float* s = src + r0 * cols_ + c0;
      float* d = dst + c0 * rows_ + r0;
      Transpose4x4(s, cols_, d, rows_);
      Transpose4x4(s + 4, cols_, d + 4 * rows_, rows_);
      Transpose4x4(s + 4 * cols_, cols_, d + 4, rows_);
      Transpose4x4(s + 4 * cols_ + 4, cols_, d + 4 * rows_ + 4, rows_);
    }
    for (size_t c = c0; c < cols_; ++c) {
      for (size_t r = r0; r < r0 + 8; ++r) {
        dst[c * rows_ + r] = src[r * cols_ + c];
      }
    }
  }
  for (size_t r = r0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) dst[c * rows_ + r] = src[r * cols_ + c];
  }
}

double Matrix::SquaredNorm() const {
  double acc = 0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

double Matrix::Sum() const {
  double acc = 0;
  for (float v : data_) acc += v;
  return acc;
}

float Matrix::MaxCoeff() const {
  CROWDRL_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

float Matrix::MinCoeff() const {
  CROWDRL_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  float worst = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

bool Matrix::AllClose(const Matrix& a, const Matrix& b, float atol) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
  return MaxAbsDiff(a, b) <= atol;
}

bool Matrix::HasNonFinite() const {
  // Branch-free so the scan vectorizes (the learner checks every gradient
  // each step): a float is NaN or ±Inf exactly when its exponent bits are
  // all ones.
  uint32_t any = 0;
  for (float v : data_) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    any |= static_cast<uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  return any != 0;
}

std::string Matrix::ToString(int precision) const {
  std::string out = "[";
  out += std::to_string(rows_);
  out += "x";
  out += std::to_string(cols_);
  out += "]\n";
  char buf[64];
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "% .*f ", precision, (*this)(r, c));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

Status Matrix::Save(std::ostream* os) const {
  uint64_t shape[2] = {rows_, cols_};
  os->write(reinterpret_cast<const char*>(shape), sizeof(shape));
  os->write(reinterpret_cast<const char*>(data_.data()),
            static_cast<std::streamsize>(data_.size() * sizeof(float)));
  if (!os->good()) return Status::IoError("matrix write failed");
  return Status::OK();
}

Result<Matrix> Matrix::Load(std::istream* is) {
  uint64_t shape[2];
  is->read(reinterpret_cast<char*>(shape), sizeof(shape));
  if (!is->good()) return Status::IoError("matrix header read failed");
  constexpr uint64_t kMaxEntries = 1ULL << 30;
  if (shape[0] * shape[1] > kMaxEntries) {
    return Status::IoError("matrix payload implausibly large");
  }
  Matrix m(shape[0], shape[1]);
  is->read(reinterpret_cast<char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!is->good()) return Status::IoError("matrix payload read failed");
  return m;
}

}  // namespace crowdrl
