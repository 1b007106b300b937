#include "embedding/model.h"

#include <cmath>

#include "common/status.h"

namespace saga::embedding {

std::string_view ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTransE:
      return "TransE";
    case ModelKind::kDistMult:
      return "DistMult";
    case ModelKind::kComplEx:
      return "ComplEx";
  }
  return "?";
}

namespace {

class TransEModel : public KgeModel {
 public:
  ModelKind kind() const override { return ModelKind::kTransE; }
  bool wants_entity_renorm() const override { return true; }

  double Score(const float* h, const float* r, const float* t,
               int dim) const override {
    double d2 = 0.0;
    for (int i = 0; i < dim; ++i) {
      const double d = static_cast<double>(h[i]) + r[i] - t[i];
      d2 += d * d;
    }
    return -std::sqrt(d2 + 1e-12);
  }

  void AccumulateGrad(const float* h, const float* r, const float* t, int dim,
                      double dscore, float* gh, float* gr,
                      float* gt) const override {
    // score = -||h + r - t||_2 ; d score / d h_i = -(h+r-t)_i / ||.||
    double d2 = 0.0;
    for (int i = 0; i < dim; ++i) {
      const double d = static_cast<double>(h[i]) + r[i] - t[i];
      d2 += d * d;
    }
    const double inv_norm = 1.0 / std::sqrt(d2 + 1e-12);
    for (int i = 0; i < dim; ++i) {
      const double d = static_cast<double>(h[i]) + r[i] - t[i];
      const double g = dscore * (-d * inv_norm);
      gh[i] += static_cast<float>(g);
      gr[i] += static_cast<float>(g);
      gt[i] -= static_cast<float>(g);
    }
  }
};

class DistMultModel : public KgeModel {
 public:
  ModelKind kind() const override { return ModelKind::kDistMult; }

  double Score(const float* h, const float* r, const float* t,
               int dim) const override {
    double s = 0.0;
    for (int i = 0; i < dim; ++i) {
      s += static_cast<double>(h[i]) * r[i] * t[i];
    }
    return s;
  }

  void AccumulateGrad(const float* h, const float* r, const float* t, int dim,
                      double dscore, float* gh, float* gr,
                      float* gt) const override {
    for (int i = 0; i < dim; ++i) {
      gh[i] += static_cast<float>(dscore * r[i] * t[i]);
      gr[i] += static_cast<float>(dscore * h[i] * t[i]);
      gt[i] += static_cast<float>(dscore * h[i] * r[i]);
    }
  }
};

/// Dim is split: first half = real parts, second half = imaginary.
class ComplExModel : public KgeModel {
 public:
  ModelKind kind() const override { return ModelKind::kComplEx; }

  double Score(const float* h, const float* r, const float* t,
               int dim) const override {
    const int half = dim / 2;
    const float* hr = h;
    const float* hi = h + half;
    const float* rr = r;
    const float* ri = r + half;
    const float* tr = t;
    const float* ti = t + half;
    double s = 0.0;
    for (int i = 0; i < half; ++i) {
      // Re(<h, r, conj(t)>)
      s += static_cast<double>(hr[i]) * rr[i] * tr[i] +
           static_cast<double>(hi[i]) * rr[i] * ti[i] +
           static_cast<double>(hr[i]) * ri[i] * ti[i] -
           static_cast<double>(hi[i]) * ri[i] * tr[i];
    }
    return s;
  }

  void AccumulateGrad(const float* h, const float* r, const float* t, int dim,
                      double dscore, float* gh, float* gr,
                      float* gt) const override {
    const int half = dim / 2;
    const float* hr = h;
    const float* hi = h + half;
    const float* rr = r;
    const float* ri = r + half;
    const float* tr = t;
    const float* ti = t + half;
    for (int i = 0; i < half; ++i) {
      gh[i] += static_cast<float>(dscore * (rr[i] * tr[i] + ri[i] * ti[i]));
      gh[i + half] +=
          static_cast<float>(dscore * (rr[i] * ti[i] - ri[i] * tr[i]));
      gr[i] += static_cast<float>(dscore * (hr[i] * tr[i] + hi[i] * ti[i]));
      gr[i + half] +=
          static_cast<float>(dscore * (hr[i] * ti[i] - hi[i] * tr[i]));
      gt[i] += static_cast<float>(dscore * (hr[i] * rr[i] - hi[i] * ri[i]));
      gt[i + half] +=
          static_cast<float>(dscore * (hi[i] * rr[i] + hr[i] * ri[i]));
    }
  }
};

}  // namespace

std::unique_ptr<KgeModel> MakeModel(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTransE:
      return std::make_unique<TransEModel>();
    case ModelKind::kDistMult:
      return std::make_unique<DistMultModel>();
    case ModelKind::kComplEx:
      return std::make_unique<ComplExModel>();
  }
  return nullptr;
}

}  // namespace saga::embedding
