#include "nn/pooling.h"

#include <limits>
#include <stdexcept>

namespace cn::nn {

namespace {
void check_input(const Tensor& x, int64_t window, const std::string& label) {
  if (x.rank() != 4)
    throw std::invalid_argument(label + ": expected NCHW input, got " +
                                to_string(x.shape()));
  if (x.dim(2) % window != 0 || x.dim(3) % window != 0)
    throw std::invalid_argument(label + ": input " + to_string(x.shape()) +
                                " not divisible by window " + std::to_string(window));
}
}  // namespace

Tensor MaxPool2D::forward(const Tensor& x, bool train) {
  check_input(x, window_, label_);
  const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int64_t OH = H / window_, OW = W / window_;
  Tensor y({N, C, OH, OW});
  if (train) {
    in_shape_ = x.shape();
    argmax_.assign(static_cast<size_t>(y.size()), 0);
  }
  int64_t oi = 0;
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* chan = x.data() + (n * C + c) * H * W;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t kh = 0; kh < window_; ++kh) {
            const int64_t ih = oh * window_ + kh;
            for (int64_t kw = 0; kw < window_; ++kw) {
              const int64_t iw = ow * window_ + kw;
              const int64_t idx = ih * W + iw;
              if (chan[idx] > best) {
                best = chan[idx];
                best_idx = (n * C + c) * H * W + idx;
              }
            }
          }
          y[oi] = best;
          if (train) argmax_[static_cast<size_t>(oi)] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  if (argmax_.empty() || argmax_.size() != static_cast<size_t>(grad_out.size()))
    throw std::logic_error(label_ + ": backward without cached forward");
  Tensor gx(in_shape_);
  for (int64_t i = 0; i < grad_out.size(); ++i)
    gx[argmax_[static_cast<size_t>(i)]] += grad_out[i];
  return gx;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(window_, label_);
}

Tensor AvgPool2D::forward(const Tensor& x, bool train) {
  check_input(x, window_, label_);
  const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int64_t OH = H / window_, OW = W / window_;
  if (train) in_shape_ = x.shape();
  else in_shape_ = x.shape();  // AvgPool backward used in frozen-base training too
  Tensor y({N, C, OH, OW});
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  int64_t oi = 0;
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* chan = x.data() + (n * C + c) * H * W;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow, ++oi) {
          float acc = 0.0f;
          for (int64_t kh = 0; kh < window_; ++kh) {
            const float* row = chan + (oh * window_ + kh) * W + ow * window_;
            for (int64_t kw = 0; kw < window_; ++kw) acc += row[kw];
          }
          y[oi] = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor AvgPool2D::backward(const Tensor& grad_out) {
  if (in_shape_.empty())
    throw std::logic_error(label_ + ": backward without cached forward");
  const int64_t N = in_shape_[0], C = in_shape_[1], H = in_shape_[2], W = in_shape_[3];
  const int64_t OH = H / window_, OW = W / window_;
  if (grad_out.size() != N * C * OH * OW)
    throw std::logic_error(label_ + ": backward without cached forward");
  Tensor gx(in_shape_);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  int64_t oi = 0;
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      float* chan = gx.data() + (n * C + c) * H * W;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow, ++oi) {
          const float g = grad_out[oi] * inv;
          for (int64_t kh = 0; kh < window_; ++kh) {
            float* row = chan + (oh * window_ + kh) * W + ow * window_;
            for (int64_t kw = 0; kw < window_; ++kw) row[kw] += g;
          }
        }
      }
    }
  }
  return gx;
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(window_, label_);
}

}  // namespace cn::nn
