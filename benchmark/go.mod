module crystalchoice/benchmark

go 1.24

require crystalchoice v0.0.0

replace crystalchoice => ../
