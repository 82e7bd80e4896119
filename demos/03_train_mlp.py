"""Backprop on a planted-subspace task
======================================

Generate a classification problem whose signal lives in a small planted
subspace of the inputs, then warm up a two-layer relu MLP with plain SGD
until validation accuracy clears a threshold.
"""
from rmtkd import (DistillConfig, SplitSpec, accuracy, init_network,
                   make_rng, normal, param_count, planted_subspace_task,
                   split, train_until)

ds, basis = planted_subspace_task(input_dim=32, intrinsic_dim=8,
                                  num_classes=10, n_samples=5000,
                                  noise_sigma=0.3, seed=0)
train, val, cal = split(ds, SplitSpec(train_fraction=0.8,
                                      calibration_fraction=0.1, seed=0))
print(f"task: {ds.dim}-dim inputs, signal rank {basis.shape[1]}, "
      f"{ds.num_classes} classes")
print(f"split: {train.n} train / {val.n} val / {cal.n} calibration\n")

init_rng = make_rng(1)
net = init_network([64, 64], ds.dim, ds.num_classes,
                   lambda shape: normal(init_rng, shape))
print(f"network: widths {[l.out_dim for l in net.layers]}, "
      f"{param_count(net)[0]} trainable parameters")

cfg = DistillConfig(max_epochs=40, accuracy_threshold=0.95)
rows = []
net, epochs, acc = train_until(net, (train, val), cfg, rng=make_rng(2),
                               log_rows=rows)

print(f"\nepoch  train_loss  val_acc")
for e, loss, _, _, va in rows:
    print(f"{e:5d}  {loss:10.4f}  {va:7.4f}")
print(f"\nstopped after {epochs} epochs at validation accuracy {acc:.4f}")
print(f"train accuracy: {accuracy(net, train.x, train.y):.4f}")
