module relaxsched/benchmark

go 1.22

require relaxsched v0.0.0

replace relaxsched => ../
