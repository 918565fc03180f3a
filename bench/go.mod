module smoothscan/bench

go 1.23

require smoothscan v0.0.0

replace smoothscan => ../
