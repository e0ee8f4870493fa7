module supremm/bench

go 1.22

require supremm v0.0.0

replace supremm => ../
