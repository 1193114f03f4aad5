module learnedindex/benchmark

go 1.21

require learnedindex v0.0.0

replace learnedindex => ../
