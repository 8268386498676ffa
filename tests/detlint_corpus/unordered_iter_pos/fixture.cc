// detlint-fixture: path=src/core/unordered_iter_pos.cc
hermes::HashMap<uint64_t, int> load_;
int Total() {
  int sum = 0;
  for (const auto& [k, v] : load_) sum += v;
  return sum;
}
auto First() { return load_.begin(); }
hermes::FlatMap<uint64_t, int> owners_;
int Owners() {
  int sum = 0;
  for (const auto& [k, v] : owners_) sum += v;
  return sum;
}
auto FirstOwner() { return owners_.begin(); }
